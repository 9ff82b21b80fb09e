"""Seeded random patterns: every engine equals brute force, or the
template rejects the pattern, naming the query (DESIGN.md §2)."""
import random

import pytest

from repro.core.brute import brute_results
from repro.core.engine import run_system
from repro.core.events import Event
from repro.core.greta import run_greta
from repro.core.hamlet import run_hamlet_set
from repro.core.queries import AggSpec, Atom, EdgePred, GroupKleene, Kleene, Neg, Pred, Query, seq
from repro.core.template import build_template

from util import assert_matches_brute

MODES = ("dynamic", "static", "nonshared")
SEEDS = 500


def _elems(rng: random.Random, letters: list, own: str, group: bool) -> tuple:
    """1–4 pattern elements: atoms and Kleene types, each matching a letter
    popped from ``letters`` (a query matches each type once), a negation
    of N, M or one of the query's letters ``own`` after a positive element
    and, outside a group, one level of group."""
    out = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if out and not isinstance(out[-1], Neg) and r < 0.2:
            out.append(Neg(rng.choice(("N", "M", rng.choice(own)))))
        elif not letters:
            break
        elif r < 0.55:
            out.append(Atom(letters.pop()))
        elif r < 0.85 or not group:
            out.append(Kleene(letters.pop()))
        else:
            out.append(GroupKleene(_elems(rng, letters, own, False)))
    return tuple(out)


def _query(rng: random.Random, qid: str) -> Query:
    own = "".join(rng.sample("ABCD", rng.randint(1, 4)))
    etype = rng.choice(own)
    return Query(
        qid=qid,
        elems=_elems(rng, list(own), own, True),
        aggs=(
            AggSpec("COUNT_STAR"),
            AggSpec("SUM", etype, "v"),
            AggSpec("AVG", etype, "v"),
            AggSpec("COUNT_E", etype),
        ),
        where={rng.choice(own): (Pred("v", ">=", rng.randint(1, 5)),)} if rng.random() < 0.4 else {},
        edge_pred=EdgePred("v", "<=") if rng.random() < 0.3 else None,
    )


def _case(seed: int) -> tuple:
    rng = random.Random(seed)
    qs = [_query(rng, f"q{i}") for i in range(rng.randint(1, 3))]
    events = [
        Event(float(i), rng.choice("ABCDNM"), {"v": float(rng.randint(0, 9))})
        for i in range(rng.randint(1, 9))
    ]
    return qs, events


def _check(qs, events) -> None:
    """GRETA and the three Hamlet modes equal brute force on every query."""
    for q in qs:
        assert_matches_brute(events, q, run_greta(events, q))
    for mode in MODES:
        res = run_hamlet_set(events, qs, mode=mode)
        for q in qs:
            assert_matches_brute(events, q, res[q.qid])


def test_random_patterns_match_brute_or_are_rejected():
    """A seed passes when ``build_template`` rejects one of its queries,
    naming it; otherwise every engine equals brute force on every query.
    A query's matched types are distinct, so rejections come from a
    negated type it also matches and from a negation ending a group."""
    wrong, accepted = [], 0
    for seed in range(SEEDS):
        qs, events = _case(seed)
        try:
            for q in qs:
                build_template(q)
        except ValueError as err:
            assert any(q.qid in str(err) for q in qs), (seed, err)
            continue
        accepted += 1
        try:
            _check(qs, events)
        except AssertionError as err:
            wrong.append((seed, str(err)))
    assert not wrong, f"{len(wrong)} of {accepted} accepted seeds wrong, first: {wrong[:3]}"
    assert accepted >= 400


def _events(types: str) -> list:
    return [Event(float(t), et, {"v": 0.0}) for t, et in enumerate(types, 1)]


@pytest.mark.parametrize(
    "elems, types",
    [
        (seq(Atom("A"), Kleene("B"), Atom("C"), Atom("A")), "ABBCA"),
        (seq(Atom("A"), Atom("B"), Atom("C"), Atom("B")), "ABCB"),
        (seq(Atom("A"), Kleene("B"), Neg("N"), Atom("B")), "ABBBC"),
    ],
    ids=["kleene-then-atom", "atoms", "across-negation"],
)
@pytest.mark.parametrize(
    "system", ["brute", "greta", "hamlet", "hamlet-static", "hamlet-nonshared", "sharon", "mcep"]
)
def test_type_matched_twice_rejected_everywhere(elems, types, system):
    """A template has one state per matched type, so a pattern matching a
    type twice would accept trends that skip its required positions: over
    A1 B2 B3 C4 A5, SEQ(A, B+, C, A) would count the lone A1 and A5 (5, not
    3); over A1 B2 C3 B4, SEQ(A, B, C, B) would count A1 B2 and A1 B4 (3,
    not 1); over A(1), B(2), B(3), B(4), C(5), SEQ(A, B+, NOT N, B) would
    count the three single-B trends (7, not 4). Every system rejects them,
    naming the query."""
    q = Query(qid="rep", elems=elems, window=10.0, slide=10.0)
    with pytest.raises(ValueError, match="rep: [AB] is matched twice"):
        if system == "brute":
            brute_results(_events(types), q)
        else:
            run_system(_events(types), [q], system)


def test_negation_guarding_two_transitions_accepted():
    """SEQ(A, NOT N, B+, NOT N, C) over A B N B B C N C (times 1–8): one
    negated type may guard several transitions. Only A1 B2, then B4 or B5
    or both, then C6 match: 3 trends in brute force and every system that
    evaluates negation (SHARON does not)."""
    q = Query(
        qid="q", elems=seq(Atom("A"), Neg("N"), Kleene("B"), Neg("N"), Atom("C")), window=10.0, slide=10.0
    )
    events = _events("ABNBBCNC")
    assert brute_results(events, q)["COUNT(*)"] == 3.0
    for system in ("greta", "hamlet", "hamlet-static", "hamlet-nonshared", "mcep"):
        assert run_system(events, [q], system).results[("q", 0.0)]["COUNT(*)"] == 3.0, system


@pytest.mark.parametrize(
    "elems",
    [
        seq(Atom("A"), Kleene("B"), Neg("B"), Atom("C")),
        seq(Atom("A"), Neg("N"), Kleene("B"), Atom("A"), Neg("M"), Atom("B")),
    ],
    ids=["negated-and-matched", "two-negations-one-transition"],
)
@pytest.mark.parametrize("system", ["brute", "greta", "hamlet", "hamlet-static", "hamlet-nonshared"])
def test_ambiguous_patterns_rejected_everywhere(elems, system):
    """Over A(1), B(2), B(3), B(4), C(5), brute force reads SEQ(A, B+, NOT
    B, C) as 0 trends and a kernel keeping the Kleene B matched as 7;
    SEQ(A, NOT N, B+, A, NOT M, B) is 7, or 14 when both negated edges
    are added. Every system rejects both, naming the query."""
    q = Query(qid="amb", elems=elems, window=10.0, slide=10.0)
    events = _events("ABBBC")
    with pytest.raises(ValueError, match="amb"):
        if system == "brute":
            brute_results(events, q)
        else:
            run_system(events, [q], system)
