"""Plan invariants computed once: executor plans per workload (matched by
query identity) and the per-plan result readers, checked against the
brute-force reference."""
import gc
import math
import random
import weakref

import pytest

from repro.core import engine, hamlet
from repro.core.engine import run_system, window_executors
from repro.core.events import Event
from repro.core.queries import AggSpec, Atom, EdgePred, Kleene, Pred, Query, seq

from util import assert_matches_brute, random_events

HAMLET_GRETA = ("greta", "hamlet", "hamlet-static", "hamlet-nonshared")
MIXED = (
    AggSpec("COUNT_STAR"),
    AggSpec("SUM", "B", "v"),
    AggSpec("COUNT_E", "B"),
    AggSpec("AVG", "B", "w"),
    AggSpec("MIN", "B", "v"),
    AggSpec("MAX", "B", "w"),
)


def _plans(workload, system, **kw):
    return [plan for *_, plan in window_executors(workload, system, **kw)]


def _workload(window=60.0, pattern=("A", "B"), sel=None):
    """Two sharable COUNT(*)/SUM queries with fixed qids."""
    where = {} if sel is None else {"B": (Pred("v", ">=", sel),)}
    elems = seq(Atom(pattern[0]), Kleene(pattern[1]))
    aggs = (AggSpec("COUNT_STAR"),)
    return [
        Query(qid="q0", elems=elems, aggs=aggs, where=where, window=window, slide=window),
        Query(qid="q1", elems=seq(Kleene(pattern[1])), aggs=aggs, window=window, slide=window),
    ]


@pytest.mark.parametrize("system", engine.SYSTEMS)
def test_same_queries_get_same_plans(system):
    wl = _workload()
    plans = _plans(wl, system)
    assert all(a is b for a, b in zip(plans, _plans(wl, system), strict=True))
    # a new list of the same Query objects is the same workload
    assert all(a is b for a, b in zip(plans, _plans(list(wl), system), strict=True))
    # the caller's list is its own
    window_executors(wl, system).clear()
    assert len(window_executors(wl, system)) == len(plans)


def test_plans_keyed_by_arguments():
    wl = _workload()
    assert _plans(wl, "sharon", sharon_l=3)[0].l_max == 3
    assert _plans(wl, "sharon", sharon_l=5)[0].l_max == 5
    assert _plans(wl, "mcep", mcep_max_trends=7)[0].max_trends == 7
    assert _plans(wl, "hamlet")[0] is not _plans(wl, "hamlet-static")[0]


@pytest.mark.parametrize("system", HAMLET_GRETA)
def test_same_qids_other_queries_get_other_plans(system):
    """Query equality compares qids only: workloads that reuse the qids
    with another window, pattern or predicate get their own plans, and each
    gives its own results, in whatever order the workloads run."""
    workloads = [
        _workload(),
        _workload(window=5.0),
        _workload(pattern=("C", "B")),
        _workload(sel=4),
    ]
    plans = [_plans(wl, system) for wl in workloads]
    for i in range(len(plans)):
        for j in range(i):
            assert not {id(p) for p in plans[i]} & {id(p) for p in plans[j]}
    events = random_events(7, n_max=16, types="ABC")
    first = [run_system(events, wl, system) for wl in workloads]
    for wl, rr in zip(reversed(workloads), reversed(first)):
        again = run_system(events, wl, system)
        assert again.results == rr.results and again.metrics == rr.metrics
        by_qid = {q.qid: q for q in wl}
        assert rr.results
        for (qid, start), aggs in rr.results.items():
            q = by_qid[qid]
            assert_matches_brute([e for e in events if start <= e.time < start + q.window], q, aggs)
    assert first[0].results != first[3].results


def _diverse_workload():
    """Unary predicates on the Kleene type make each burst event cut its
    failing positions: every cut is a kernel view."""
    return [
        Query(
            qid=f"p{i}",
            elems=seq(Atom("A"), Kleene("B")),
            aggs=(AggSpec("COUNT_STAR"),),
            where={"B": (Pred("v", ">=", i),)} if i else {},
        )
        for i in range(6)
    ]


@pytest.mark.parametrize("system", ["hamlet", "hamlet-static", "hamlet-nonshared"])
def test_repeated_runs_equal_across_view_eviction(system, monkeypatch):
    """Runs that reuse a workload's plans give equal results and counters,
    also when the kernels' cached views are evicted between and during
    the runs."""
    wl = _diverse_workload()
    events = random_events(3, n_max=40, types="AB")
    first = run_system(events, wl, system)
    assert first.results
    kernels = [ker for plan in _plans(wl, system) for ker in plan.kernels.values()]
    assert any(ker.views for ker in kernels)
    for ker in kernels:
        ker.views.clear()
    monkeypatch.setattr(hamlet, "_MAX_VIEWS", 1)
    for _ in range(3):
        rr = run_system(events, wl, system)
        assert rr.results == first.results
        assert rr.metrics == first.metrics
    # the runs evicted: no kernel keeps more views than the bound
    assert all(len(ker.views) <= 1 for ker in kernels)


def test_plan_cache_is_bounded_and_lets_queries_go():
    wl = _workload()
    window_executors(wl, "hamlet")
    gone = weakref.ref(wl[0])
    del wl
    for _ in range(engine._MAX_PLANS):
        window_executors(_workload(), "hamlet")
    assert len(engine._PLANS) <= engine._MAX_PLANS
    gc.collect()
    assert gone() is None


def test_bad_workloads_fail_every_time():
    dup = _workload() + _workload()
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate"):
            window_executors(dup, "hamlet")
        with pytest.raises(ValueError, match="unknown system"):
            window_executors(_workload(), "nope")


# -- result readers ------------------------------------------------------


def _reader_workload():
    """All six aggregate functions: two queries with every one of them (one
    sharable set), and three linear-only queries that share one set with
    their channels in different orders."""
    kb = seq(Atom("A"), Kleene("B"))
    return [
        Query(qid="all", elems=kb, aggs=MIXED),
        Query(qid="all_pred", elems=seq(Atom("C"), Kleene("B")), aggs=MIXED,
              where={"B": (Pred("v", ">=", 3),)}),
        Query(qid="lin1", elems=kb, aggs=(AggSpec("SUM", "B", "v"), AggSpec("COUNT_E", "B"))),
        Query(qid="lin2", elems=kb, aggs=(AggSpec("AVG", "B", "w"), AggSpec("SUM", "B", "w")),
              where={"B": (Pred("w", "<=", 3),)}),
        Query(qid="lin3", elems=seq(Kleene("B")),
              aggs=(AggSpec("COUNT_E", "B"), AggSpec("AVG", "B", "v"), AggSpec("SUM", "B", "v")),
              edge_pred=EdgePred("v", "<=")),
    ]


@pytest.mark.parametrize("system", HAMLET_GRETA)
@pytest.mark.parametrize("seed", range(8))
def test_readers_match_brute(system, seed):
    wl = _reader_workload()
    events = random_events(seed + 300, n_max=14, types="ABC")
    rr = run_system(events, wl, system)
    by_qid = {q.qid: q for q in wl}
    assert {qid for qid, _ in rr.results} == (set(by_qid) if events else set())
    for (qid, start), aggs in rr.results.items():
        q = by_qid[qid]
        assert list(aggs) == [a.name for a in q.aggs]
        assert_matches_brute([e for e in events if start <= e.time < start + q.window], q, aggs)


@pytest.mark.parametrize("system", HAMLET_GRETA)
def test_readers_tell_sum_from_count(system):
    """SUM and COUNT(E) of one type differ on this stream, so a reader that
    read one for the other fails."""
    wl = _reader_workload()
    events = [Event(0.0, "A", {"v": 0, "w": 0})] + [
        Event(1.0 + i, "B", {"v": v, "w": w}) for i, (v, w) in enumerate([(5, 1), (7, 2), (9, 3)])
    ]
    rr = run_system(events, wl, system)
    for q in wl:
        assert_matches_brute(events, q, rr.results[q.qid, 0.0])
    # 7 trends; each B is in 4 of them
    for qid in ("all", "lin1"):
        aggs = rr.results[qid, 0.0]
        assert (aggs["SUM(B.v)"], aggs["COUNT(B)"]) == (84.0, 12.0)
    assert rr.results["all", 0.0]["COUNT(*)"] == 7.0
    assert rr.results["all", 0.0]["AVG(B.w)"] == 2.0


@pytest.mark.parametrize("system", HAMLET_GRETA)
def test_empty_aggregates_are_nan(system):
    """With no trend in the window: AVG over COUNT(E) = 0 and MIN/MAX with
    no event taking part are NaN; counts and sums are 0."""
    wl = _reader_workload()
    # the B events precede every A and C, and match no query's start
    events = [
        Event(0.5, "B", {"v": 3, "w": 2}),
        Event(1.0, "A", {"v": 1, "w": 1}),
        Event(2.0, "C", {"v": 1, "w": 1}),
    ]
    rr = run_system(events, [q for q in wl if q.qid != "lin3"], system)
    for qid in ("all", "all_pred"):
        aggs = rr.results[qid, 0.0]
        assert aggs["COUNT(*)"] == 0.0 and aggs["SUM(B.v)"] == 0.0 and aggs["COUNT(B)"] == 0.0
        assert math.isnan(aggs["AVG(B.w)"])
        assert math.isnan(aggs["MIN(B.v)"]) and math.isnan(aggs["MAX(B.w)"])
    assert math.isnan(rr.results["lin2", 0.0]["AVG(B.w)"])
    assert rr.results["lin2", 0.0]["SUM(B.w)"] == 0.0


@pytest.mark.parametrize("system", HAMLET_GRETA)
def test_minmax_without_participants_is_nan_next_to_trends(system):
    """A query whose predicate keeps every B out has no trend, so its MIN
    and MAX are NaN, while its sharable-set neighbour has both."""
    wl = _reader_workload()[:2]
    rng = random.Random(5)
    events = [Event(0.0, "A", {"v": 0, "w": 0}), Event(0.1, "C", {"v": 0, "w": 0})] + [
        Event(1.0 + i, "B", {"v": rng.randint(0, 2), "w": rng.randint(0, 9)}) for i in range(5)
    ]
    rr = run_system(events, wl, system)
    pred = rr.results["all_pred", 0.0]
    assert pred["COUNT(*)"] == 0.0
    assert math.isnan(pred["MIN(B.v)"]) and math.isnan(pred["MAX(B.w)"])
    full = rr.results["all", 0.0]
    assert full["COUNT(*)"] == 31.0
    assert full["MIN(B.v)"] == min(e.attrs["v"] for e in events[2:])
    assert full["MAX(B.w)"] == max(e.attrs["w"] for e in events[2:])
