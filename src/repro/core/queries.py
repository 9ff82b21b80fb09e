"""Event trend aggregation query model (paper Definitions 1–3).

A :class:`Query` is a SASE-style trend aggregation query: a sequence
pattern over event types with Kleene-plus, optional negation and nested
(group) Kleene, unary predicates per event type, an optional Kleene
*edge* predicate (applied to adjacent Kleene events in a trend —
``[driver,rider]``-style equality predicates are instead pushed into
stream partitioning, see DESIGN.md), aggregates, and a window/slide.

Everything here is a plain picklable dataclass so queries can travel
into Spark workers by closure.
"""
from __future__ import annotations

import math
import operator as _operator
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from .events import Event

_OPS = {
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
    "==": _operator.eq,
    "!=": _operator.ne,
}


def _check_op(op: str) -> None:
    # an unknown operator would fail only when an event reaches the query
    if op not in _OPS:
        raise ValueError(f"unknown operator {op!r}")


@dataclass(frozen=True)
class Pred:
    """Unary predicate ``event.attr <op> value`` on one event type."""

    attr: str
    op: str
    value: float

    def __post_init__(self):
        _check_op(self.op)

    def ok(self, e: Event) -> bool:
        return _OPS[self.op](e.attrs.get(self.attr, 0.0), self.value)


@dataclass(frozen=True)
class EdgePred:
    """Binary predicate over adjacent Kleene events ``op(prev.attr, cur.attr)``.

    This is what makes predecessor sets *differ per query* inside a shared
    graphlet (paper Challenge 2 / Definition 9) — e.g. a monotone-price
    constraint holds for one query but not another.
    """

    attr: str
    op: str

    def __post_init__(self):
        _check_op(self.op)

    def ok(self, prev: Event, cur: Event) -> bool:
        return _OPS[self.op](prev.attrs.get(self.attr, 0.0), cur.attrs.get(self.attr, 0.0))


# ---------------------------------------------------------------------------
# Pattern elements (Definition 1). A pattern is a tuple of elements read as
# SEQ(elem_1, ..., elem_m).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A single event of type ``etype``."""

    etype: str


@dataclass(frozen=True)
class Kleene:
    """``etype+`` — one or more events of ``etype``."""

    etype: str


@dataclass(frozen=True)
class Neg:
    """``NOT etype`` — no matched event of ``etype`` between neighbours."""

    etype: str


@dataclass(frozen=True)
class GroupKleene:
    """``(SEQ(...))+`` — nested Kleene over a sub-sequence (paper §5)."""

    elems: tuple


PatternElem = Union[Atom, Kleene, Neg, GroupKleene]

# Aggregate functions (Definition 2/§2.1). ``COUNT_STAR`` counts trends;
# the rest range over events of ``etype`` inside trends.
AGG_FNS = ("COUNT_STAR", "COUNT_E", "SUM", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class AggSpec:
    """One aggregation output, e.g. ``AggSpec('SUM', 'B', 'speed')``."""

    fn: str
    etype: Optional[str] = None
    attr: Optional[str] = None

    def __post_init__(self):
        if self.fn not in AGG_FNS:
            raise ValueError(f"unknown aggregate {self.fn}")
        if self.fn != "COUNT_STAR" and self.etype is None:
            raise ValueError(f"{self.fn} needs an event type")
        if self.fn in ("SUM", "AVG", "MIN", "MAX") and self.attr is None:
            raise ValueError(f"{self.fn}({self.etype}) needs an attribute")

    @property
    def name(self) -> str:
        if self.fn == "COUNT_STAR":
            return "COUNT(*)"
        if self.fn == "COUNT_E":
            return f"COUNT({self.etype})"
        return f"{self.fn}({self.etype}.{self.attr})"


COUNT_STAR = AggSpec("COUNT_STAR")


@dataclass(eq=False)
class Query:
    """An event trend aggregation query (Definition 2).

    ``where`` maps event type -> tuple of unary :class:`Pred` (all must
    hold for the event to be *matched* by this query). ``edge_pred``
    optionally constrains adjacent Kleene events. ``window``/``slide``
    are in seconds; ``groupby`` names the partitioning attribute (the
    engines receive pre-partitioned streams, so it is metadata here).
    Queries are identified by ``qid`` everywhere.
    """

    qid: str
    elems: tuple
    aggs: tuple = (COUNT_STAR,)
    where: Mapping[str, tuple] = field(default_factory=dict)
    edge_pred: Optional[EdgePred] = None
    window: float = 60.0
    slide: float = 60.0
    groupby: str = "gkey"

    def __post_init__(self):
        # a slide <= 0 never advances the window instances
        for name in ("window", "slide"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{self.qid}: {name} must be finite and > 0, got {v!r}")

    def __hash__(self) -> int:
        return hash(self.qid)

    def __eq__(self, other) -> bool:
        return isinstance(other, Query) and other.qid == self.qid

    # -- matching helpers ---------------------------------------------------
    def matches(self, e: Event) -> bool:
        """Does event ``e`` pass this query's unary predicates for its type?"""
        preds = self.where.get(e.etype, ())
        return all(p.ok(e) for p in preds)


def seq(*elems: PatternElem) -> tuple:
    """Readable constructor: ``seq(Atom('A'), Kleene('B'))``."""
    return tuple(elems)
