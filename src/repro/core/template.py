"""Query templates and workload analysis (paper §3.1, §5).

A *query template* is the FSA-flavoured summary of one pattern: which
event types appear, which types start/end trends, and the predecessor
type relation ``pt(E, q)``. As in Example 2, each matched type is one
state, so a pattern matches each type once. Its ``kleene`` types are the
pattern's Kleene sub-patterns (Definition 4), nested ones included. The
paper's *merged template* (Fig. 3(b)), each transition labelled with the
queries that share it, is the sharable set's kernel tables
(``hamlet.HamletPlan.kernels``): one predecessor edge per transition,
labelled with the positions that take it. Workload analysis splits a
workload into sharable sets (Definition 5), one query tuple each, a
query that shares with no other being a set of one; ``pane_size`` is the
gcd of windows and slides. A plan derives its Kleene type and pane from
its set's queries, and builds their templates once per workload.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable, Mapping, Optional, Sequence

from .events import Event
from .queries import Atom, GroupKleene, Kleene, Neg, Query


@dataclass
class Template:
    """Per-query template: Example 2's ``start``/``end``/``pt`` relations.
    ``pt[E][P]`` is the transition ``P → E``: the negated type whose matched
    events sever it (§5, Pattern with Negation), or ``None``."""

    types: frozenset
    start: frozenset
    end: frozenset
    pt: Mapping[str, Mapping[str, Optional[str]]]  # etype -> {ptype: blocker or None}
    kleene: frozenset  # single-type Kleene-plus types (Definition 4)
    neg_types: frozenset
    trailing_neg: Optional[str] = None  # SEQ(..., NOT N) — invalidates earlier ends


def build_template(q: Query) -> Template:
    """Construct the template of ``q`` by one walk over its pattern.

    Mirrors the state-machine construction of [33] (GRETA): each positive
    element contributes states/transitions; ``Neg`` marks the next
    transition as blocked by the negated type; ``GroupKleene`` adds the
    §5 back-loop from its inner end types to its inner start types.

    Each matched type is one state, so a ``ValueError`` naming the query
    rejects a type matched twice (by ``Atom`` or ``Kleene``, at any group
    depth) and a type both negated and matched; a negated type may guard
    several transitions. It also rejects a negation that would guard no
    transition (one first in a sequence or a group, one right after
    another, and one last in a group) and a group with no positive element.
    """
    pt: dict[str, dict[str, Optional[str]]] = {}
    matched: set[str] = set()
    neg_types: set[str] = set()
    kleene: set[str] = set()
    start: set[str] = set()
    trailing_neg: Optional[str] = None

    def add_edge(etype: str, ptype: str, blocker: Optional[str]) -> None:
        pt.setdefault(etype, {})[ptype] = blocker

    def walk(elems: Sequence, prev_ends: set[str], blocker: Optional[str], first: bool):
        """Returns (prev_ends, blocker, first) after consuming ``elems``."""
        nonlocal trailing_neg
        for i, el in enumerate(elems):
            if isinstance(el, Neg):
                if i == 0 or isinstance(elems[i - 1], Neg):
                    raise ValueError(f"{q.qid}: NOT {el.etype} must follow a positive element")
                neg_types.add(el.etype)
                blocker = el.etype
                trailing_neg = el.etype  # provisional; cleared by a later positive elem
                continue
            trailing_neg = None
            if isinstance(el, Atom) or isinstance(el, Kleene):
                e = el.etype
                if e in matched:
                    raise ValueError(f"{q.qid}: {e} is matched twice")
                matched.add(e)
                for p in prev_ends:
                    add_edge(e, p, blocker)
                if isinstance(el, Kleene):
                    kleene.add(e)
                    add_edge(e, e, None)
                if first:
                    start.add(e)
                    first = False
                prev_ends = {e}
                blocker = None
            elif isinstance(el, GroupKleene):
                inner_first_types = _first_positive_types(el.elems, q.qid)
                if isinstance(el.elems[-1], Neg):
                    raise ValueError(f"{q.qid}: NOT {el.elems[-1].etype} cannot end a Kleene group")
                if first:
                    start.update(inner_first_types)
                    first = False
                for p in prev_ends:
                    for s in inner_first_types:
                        add_edge(s, p, blocker)
                blocker = None
                inner_ends, _, _ = walk(el.elems, set(), None, True)
                # the + back-loop: inner end types precede inner start types
                for endt in inner_ends:
                    for s in inner_first_types:
                        add_edge(s, endt, None)
                prev_ends = inner_ends
            else:  # pragma: no cover - guarded by type checks upstream
                raise TypeError(f"unknown pattern element {el!r}")
        return prev_ends, blocker, first

    prev_ends, _, first = walk(q.elems, set(), None, True)
    if first:
        raise ValueError(f"pattern of {q.qid} has no positive element")
    if both := matched & neg_types:
        raise ValueError(f"{q.qid}: {min(both)} is both negated and matched")
    return Template(
        types=frozenset(matched | neg_types),
        start=frozenset(start),
        end=frozenset(prev_ends),
        pt={e: dict(sorted(v.items())) for e, v in pt.items()},
        kleene=frozenset(kleene),
        neg_types=frozenset(neg_types),
        trailing_neg=trailing_neg,
    )


def edge_ok(
    q: Query, tpl: Template, prev: Event, cur: Event, blockers: Mapping[str, Sequence[float]]
) -> bool:
    """Match-DAG edge rule: may ``prev`` precede ``cur`` in a trend of ``q``?

    ``prev``'s type has a transition into ``cur``'s, no matched event of
    its negation blocker lies strictly between the two (``blockers`` holds
    the matched blocker times), and the Kleene edge predicate holds for
    adjacent events of one Kleene type. Event times are the caller's to
    check."""
    edges = tpl.pt.get(cur.etype, {})
    if prev.etype not in edges:
        return False
    blocker = edges[prev.etype]
    if blocker is not None and any(prev.time < t < cur.time for t in blockers.get(blocker, ())):
        return False
    return (
        q.edge_pred is None
        or cur.etype not in tpl.kleene
        or prev.etype != cur.etype
        or q.edge_pred.ok(prev, cur)
    )


def end_ok(tpl: Template, e: Event, blockers: Mapping[str, Sequence[float]]) -> bool:
    """May a trend end at ``e``? Its type is an end type, and no matched
    event of a trailing negation follows it."""
    if e.etype not in tpl.end:
        return False
    return tpl.trailing_neg is None or not any(
        t > e.time for t in blockers.get(tpl.trailing_neg, ())
    )


def _first_positive_types(elems: Sequence, qid: str) -> set[str]:
    for el in elems:
        if isinstance(el, (Atom, Kleene)):
            return {el.etype}
        if isinstance(el, GroupKleene):
            return _first_positive_types(el.elems, qid)
    raise ValueError(f"{qid}: pattern group has no positive element")


# ---------------------------------------------------------------------------
# Sharable queries (Definitions 4 & 5) and pane size
# ---------------------------------------------------------------------------


def agg_signature(q: Query) -> tuple:
    """Aggregate-compatibility class (Definition 5 discussion).

    COUNT(*), MIN and MAX only share with queries computing the same
    aggregate; SUM / AVG / COUNT(E) are inter-shareable per event type
    because AVG = SUM / COUNT(E).
    """
    strict: set[tuple] = set()
    linear: set[str] = set()
    for a in q.aggs:
        if a.fn == "COUNT_STAR":
            strict.add(("cnt",))
        elif a.fn in ("MIN", "MAX"):
            strict.add((a.fn, a.etype, a.attr))
        else:  # SUM / AVG / COUNT_E
            linear.add(a.etype)
    return (frozenset(strict), frozenset(linear))


def pane_size(windows_and_slides: Iterable[float]) -> float:
    """gcd of window sizes and slides, computed over exact rationals so
    e.g. gcd(10 min, 15 min, 5 min) = 5 min without float drift."""
    fracs = [Fraction(x).limit_denominator(10**6) for x in windows_and_slides]
    if not fracs:
        raise ValueError("need at least one window")
    # gcd(a/b, c/d) = gcd(a*d, c*b) / (b*d), reduced by Fraction
    g = fracs[0]
    for f in fracs[1:]:
        g = Fraction(_int_gcd(g.numerator * f.denominator, f.numerator * g.denominator), g.denominator * f.denominator)
    return float(g)


def sharable_sets(workload: Sequence[Query]) -> list[tuple]:
    """Split the workload into sharable sets (Definition 5), one query
    tuple per set; a query that shares with no other is a set of one.

    A query joins one set, keyed by its smallest Kleene type (``None``
    without one) plus window, slide, group-by and aggregate signature.
    """
    buckets: dict[tuple, list[Query]] = {}
    for q in workload:
        etype = min(build_template(q).kleene, default=None)
        buckets.setdefault((etype, q.window, q.slide, q.groupby, agg_signature(q)), []).append(q)
    # ordered by Kleene type, window and slide; ``None`` sorts as ""
    order = sorted(buckets, key=lambda key: (key[0] or "", key[1], key[2]))
    return [tuple(buckets[key]) for key in order]
