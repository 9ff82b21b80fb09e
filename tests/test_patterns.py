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


def _elems(rng: random.Random, group: bool) -> tuple:
    """1–4 pattern elements over A, B and C: atoms, Kleene types, a
    negation of N, A or B after a positive element and, outside a group,
    one level of group."""
    out = []
    for _ in range(rng.randint(1, 4)):
        r = rng.random()
        if out and not isinstance(out[-1], Neg) and r < 0.25:
            out.append(Neg(rng.choice("NAB")))
        elif r < 0.55:
            out.append(Atom(rng.choice("ABC")))
        elif r < 0.85 or not group:
            out.append(Kleene(rng.choice("ABC")))
        else:
            out.append(GroupKleene(_elems(rng, False)))
    return tuple(out)


def _query(rng: random.Random, qid: str) -> Query:
    etype = rng.choice("ABC")
    return Query(
        qid=qid,
        elems=_elems(rng, True),
        aggs=(
            AggSpec("COUNT_STAR"),
            AggSpec("SUM", etype, "v"),
            AggSpec("AVG", etype, "v"),
            AggSpec("COUNT_E", etype),
        ),
        where={rng.choice("ABC"): (Pred("v", ">=", rng.randint(1, 5)),)} if rng.random() < 0.4 else {},
        edge_pred=EdgePred("v", "<=") if rng.random() < 0.3 else None,
    )


def _case(seed: int) -> tuple:
    rng = random.Random(seed)
    qs = [_query(rng, f"q{i}") for i in range(rng.randint(1, 3))]
    events = [
        Event(float(i), rng.choice("ABCN"), {"v": float(rng.randint(0, 9))})
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
    Patterns reaching one type pair twice, or negating a matched type,
    are where a kernel that adds one term per edge would go wrong."""
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
    assert accepted >= SEEDS // 2


def _probe_events() -> list:
    return [Event(float(t), et, {"v": 0.0}) for t, et in enumerate("ABBBC", 1)]


def test_absorbed_edge_counts_once():
    """SEQ(A, B+, NOT N, B) over A(1), B(2), B(3), B(4), C(5): B follows B
    unblocked (the Kleene loop) and blocked by N (across the negation);
    the unblocked transition absorbs the blocked one. Every system counts
    the 7 trends brute force does; a kernel adding both would count 13."""
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B"), Neg("N"), Atom("B")), window=10.0, slide=10.0)
    events = _probe_events()
    assert brute_results(events, q)["COUNT(*)"] == 7.0
    for system in ("greta", "hamlet", "hamlet-static", "hamlet-nonshared"):
        assert run_system(events, [q], system).results[("q", 0.0)]["COUNT(*)"] == 7.0, system


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
    events = _probe_events()
    with pytest.raises(ValueError, match="amb"):
        if system == "brute":
            brute_results(events, q)
        else:
            run_system(events, [q], system)
