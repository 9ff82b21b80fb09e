"""General trend aggregation queries (paper §5): negation, disjunction,
conjunction count composition, nested Kleene."""
import pytest

from repro.core.brute import brute_results, enumerate_trends
from repro.core.events import Event
from repro.core.general import count_conjunction, count_disjunction, trend_key
from repro.core.greta import run_greta
from repro.core.hamlet import run_hamlet_set
from repro.core.queries import Atom, GroupKleene, Kleene, Neg, Pred, Query, seq

from util import assert_matches_brute, random_events


def _ev(t, et, v=0.0):
    return Event(t, et, {"v": v})


@pytest.mark.parametrize("seed", range(12))
def test_negation_mid_pattern_all_engines(seed):
    events = random_events(seed + 40, n_max=14)
    q = Query(qid="q", elems=seq(Atom("A"), Neg("N"), Kleene("B")))
    assert_matches_brute(events, q, run_greta(events, q))
    res = run_hamlet_set(events, [q], mode="nonshared")
    assert_matches_brute(events, q, res["q"])


@pytest.mark.parametrize("seed", range(12))
def test_trailing_negation_all_engines(seed):
    events = random_events(seed + 80, n_max=14)
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B"), Neg("N")))
    assert_matches_brute(events, q, run_greta(events, q))
    res = run_hamlet_set(events, [q], mode="nonshared")
    assert_matches_brute(events, q, res["q"])


@pytest.mark.parametrize("seed", range(12))
def test_shared_negation_queries(seed):
    events = random_events(seed + 120, n_max=14)
    qs = [
        Query(qid="qn", elems=seq(Atom("A"), Neg("N"), Kleene("B"))),
        Query(qid="qp", elems=seq(Atom("A"), Kleene("B"))),
    ]
    res = run_hamlet_set(events, qs, mode="static")
    for q in qs:
        assert_matches_brute(events, q, res[q.qid])


@pytest.mark.parametrize("seed", range(10))
def test_nested_kleene_greta_matches_brute(seed):
    events = random_events(seed + 160, n_max=10, types="AB")
    q = Query(qid="q", elems=seq(GroupKleene(seq(Atom("A"), Kleene("B")))))
    assert_matches_brute(events, q, run_greta(events, q))


@pytest.mark.parametrize("seed", range(10))
def test_nested_kleene_hamlet_matches_brute(seed):
    events = random_events(seed + 200, n_max=10, types="ABC")
    qs = [
        Query(qid="q1", elems=seq(GroupKleene(seq(Atom("A"), Kleene("B"))))),
        Query(qid="q2", elems=seq(GroupKleene(seq(Atom("C"), Kleene("B"))))),
    ]
    for mode in ("static", "nonshared", "dynamic"):
        res = run_hamlet_set(events, qs, mode=mode)
        for q in qs:
            assert_matches_brute(events, q, res[q.qid])


def _disjoint_queries():
    return (
        Query(qid="p1", elems=seq(Atom("A"), Kleene("B"))),
        Query(qid="p2", elems=seq(Atom("C"), Kleene("B"))),
    )


def _overlapping_queries():
    return (
        Query(qid="p1", elems=seq(Atom("A"), Kleene("B"))),
        Query(qid="p2", elems=seq(Atom("A"), Kleene("B")), where={"B": (Pred("v", ">=", 5),)}),
    )


@pytest.mark.parametrize("qpair", [_disjoint_queries, _overlapping_queries])
@pytest.mark.parametrize("seed", range(8))
def test_disjunction_composition(qpair, seed):
    """§5: COUNT(P1 ∨ P2) = C1' + C2' + C12 computed from the parts."""
    events = random_events(seed + 300, n_max=10, types="ABC")
    p1, p2 = qpair()
    t1 = {trend_key(t) for t in enumerate_trends(events, p1)}
    t2 = {trend_key(t) for t in enumerate_trends(events, p2)}
    c1, c2, c12 = len(t1), len(t2), len(t1 & t2)
    assert count_disjunction(c1, c2, c12) == len(t1 | t2)


@pytest.mark.parametrize("seed", range(8))
def test_conjunction_composition(seed):
    """§5: COUNT(P1 ∧ P2) counts unordered pairs of distinct trends."""
    events = random_events(seed + 400, n_max=9, types="ABC")
    p1, p2 = _overlapping_queries()
    t1 = {trend_key(t) for t in enumerate_trends(events, p1)}
    t2 = {trend_key(t) for t in enumerate_trends(events, p2)}
    c1, c2, c12 = len(t1), len(t2), len(t1 & t2)
    # oracle: unordered pairs {a,b} with a∈P1, b∈P2, a≠b
    pairs = {frozenset((a, b)) for a in t1 for b in t2 if a != b}
    assert count_conjunction(c1, c2, c12) == len(pairs)
