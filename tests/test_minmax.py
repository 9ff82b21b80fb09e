"""MIN/MAX aggregates across engines (participation semantics)."""
import math

import pytest

from repro.core.brute import brute_results
from repro.core.events import Event
from repro.core.greta import run_greta
from repro.core.hamlet import run_hamlet_set
from repro.core.queries import AggSpec, Atom, Kleene, Pred, Query, seq

from util import assert_matches_brute, random_events

AGGS = (AggSpec("COUNT_STAR"), AggSpec("MIN", "B", "v"), AggSpec("MAX", "B", "v"))


def _ev(t, et, v=0.0):
    return Event(t, et, {"v": v})


@pytest.mark.parametrize("seed", range(15))
def test_greta_minmax_matches_brute(seed):
    events = random_events(seed + 2000, n_max=14, types="ABC")
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")), aggs=AGGS,
              where={"B": (Pred("v", ">=", 3),)})
    assert_matches_brute(events, q, run_greta(events, q))


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
@pytest.mark.parametrize("seed", range(8))
def test_hamlet_minmax_matches_brute(mode, seed):
    events = random_events(seed + 2100, n_max=14, types="ABC")
    qs = [
        Query(qid="q1", elems=seq(Atom("A"), Kleene("B")), aggs=AGGS),
        Query(qid="q2", elems=seq(Atom("C"), Kleene("B")), aggs=AGGS,
              where={"B": (Pred("v", "<=", 6),)}),
    ]
    res = run_hamlet_set(events, qs, mode=mode)
    for q in qs:
        assert_matches_brute(events, q, res[q.qid])


def test_unreachable_event_excluded_from_min():
    """A matched B with no preceding A participates in no trend and must
    not contribute to MIN (participation, not just matching)."""
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")), aggs=AGGS)
    events = [_ev(0, "B", 1.0), _ev(1, "A"), _ev(2, "B", 7.0)]
    r = run_greta(events, q)
    assert r["MIN(B.v)"] == 7.0
    h = run_hamlet_set(events, [q], mode="nonshared")["q"]
    assert h["MIN(B.v)"] == 7.0


def test_minmax_nan_when_no_trends():
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")), aggs=AGGS)
    r = run_greta([_ev(0, "B", 5.0)], q)
    assert math.isnan(r["MIN(B.v)"]) and math.isnan(r["MAX(B.v)"])


def test_minmax_on_suffix_end_type():
    q = Query(
        qid="q",
        elems=seq(Atom("A"), Kleene("B"), Atom("C")),
        aggs=(AggSpec("COUNT_STAR"), AggSpec("MIN", "C", "v"), AggSpec("MAX", "C", "v")),
    )
    events = [_ev(0, "A"), _ev(1, "B"), _ev(2, "C", 4.0), _ev(3, "C", 9.0)]
    assert_matches_brute(events, q, run_greta(events, q))
    h = run_hamlet_set(events, [q], mode="nonshared")["q"]
    assert_matches_brute(events, q, h)
