"""Workload-level facade: window instancing, system dispatch, metrics
(paper §6.1 metric definitions)."""
import bisect
import random

import pytest

from repro.core import engine
from repro.core.brute import brute_results
from repro.core.engine import RunResult, SYSTEMS, run_system, window_instances
from repro.core.events import Event
from repro.core.hamlet import HamletPlan, Metrics
from repro.core.queries import AggSpec, Atom, GroupKleene, Kleene, Neg, Pred, Query, seq

from util import assert_matches_brute, random_events


def _ev(t, et, v=0.0):
    return Event(t, et, {"v": v})


def test_window_instances_tumbling():
    evs = [_ev(t, "B") for t in (0.5, 1.5, 10.5, 21.0)]
    inst = list(window_instances(evs, window=10.0, slide=10.0))
    assert [(s, len(es)) for s, es in inst] == [(0.0, 2), (10.0, 1), (20.0, 1)]


def test_window_instances_sliding_overlap():
    evs = [_ev(t, "B") for t in (1.0, 6.0, 11.0)]
    inst = dict(window_instances(evs, window=10.0, slide=5.0))
    assert len(inst[0.0]) == 2  # t=1, t=6
    assert len(inst[5.0]) == 2  # t=6, t=11
    assert len(inst[10.0]) == 1


def test_window_instances_skip_empty():
    evs = [_ev(1.0, "B"), _ev(35.0, "B")]
    starts = [s for s, _ in window_instances(evs, 10.0, 10.0)]
    assert starts == [0.0, 30.0]


def test_run_system_rejects_nothing_silently():
    assert set(SYSTEMS) == {
        "hamlet", "hamlet-static", "hamlet-nonshared", "greta", "sharon", "mcep"
    }
    from repro.sparkrt.streaming import make_stateful_func

    q = Query(qid="a", elems=seq(Atom("A"), Kleene("B")), window=10.0, slide=10.0)
    with pytest.raises(ValueError, match="hamlet-static"):
        run_system([_ev(1.0, "A")], [q], "nope")
    with pytest.raises(ValueError, match="hamlet-static"):
        make_stateful_func([q], "nope", 10.0)


@pytest.mark.parametrize("system", SYSTEMS)
def test_duplicate_query_ids_rejected(system):
    """Two queries with one qid would share a result key: every entry point
    refuses them and names the qid."""
    from repro.sparkrt.streaming import make_stateful_func

    qs = [
        Query(qid="q", elems=seq(Atom("A"), Kleene("B")), window=10.0, slide=10.0),
        Query(qid="q", elems=seq(Atom("C"), Kleene("B")), window=10.0, slide=10.0),
    ]
    events = [_ev(1.0, "A"), _ev(2.0, "B"), _ev(3.0, "C"), _ev(4.0, "B")]
    with pytest.raises(ValueError, match="duplicate query id 'q'"):
        run_system(events, qs, system)
    with pytest.raises(ValueError, match="duplicate query id 'q'"):
        make_stateful_func(qs, system, 10.0)


@pytest.mark.parametrize("slide", [10.0, 5.0])
@pytest.mark.parametrize("system", SYSTEMS)
def test_negative_times_match_brute(system, slide):
    """Events before time 0 belong to the instances that start before 0,
    as the streaming operator's ``int(t // window)`` keys them."""
    events = [_ev(-5.0, "A"), _ev(-3.0, "B"), _ev(1.0, "A"), _ev(2.0, "B")]
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")), window=10.0, slide=slide)
    want = {}
    for start in (slide * m for m in range(-4, 2)):
        in_window = [e for e in events if start <= e.time < start + 10.0]
        if in_window:
            want[("q", start)] = brute_results(in_window, q)
    assert ("q", -10.0) in want
    assert run_system(events, [q], system).results == want


def test_window_instances_cost_follows_nonempty_instances(monkeypatch):
    """Epoch-second times: slicing visits the non-empty instances, not
    every instance since time 0."""
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls > 20:
            raise AssertionError("window_instances walks empty instances")
        return bisect.bisect_left(*args, **kwargs)

    monkeypatch.setattr(engine, "bisect_left", counted)
    evs = [_ev(1.6e9 + 2.0 * i, "B") for i in range(30)]
    inst = list(window_instances(evs, 60.0, 60.0))
    assert [(s, len(es)) for s, es in inst] == [(1.6e9 - 40.0, 10), (1.6e9 + 20.0, 20)]


@pytest.mark.parametrize("seed", range(8))
def test_sliding_windows_consistent_across_systems(seed):
    events = random_events(seed + 700, n_max=24, types="ABCD")
    qs = [
        Query(qid="a", elems=seq(Atom("A"), Kleene("B")), window=8.0, slide=4.0),
        Query(qid="b", elems=seq(Atom("C"), Kleene("B")), window=8.0, slide=4.0),
    ]
    ref = run_system(events, qs, "greta")
    for system in ("hamlet", "hamlet-static", "hamlet-nonshared"):
        got = run_system(events, qs, system)
        assert set(got.results) == set(ref.results)
        for key in ref.results:
            assert got.results[key]["COUNT(*)"] == ref.results[key]["COUNT(*)"]


@pytest.mark.parametrize("seed", range(6))
def test_each_window_instance_matches_brute(seed):
    events = random_events(seed + 800, n_max=20, types="AB")
    q = Query(qid="a", elems=seq(Atom("A"), Kleene("B")), window=6.0, slide=3.0)
    rr = run_system(events, [q], "hamlet")
    for (qid, start), aggs in rr.results.items():
        in_window = [e for e in events if start <= e.time < start + 6.0]
        assert_matches_brute(in_window, q, aggs)


def test_metrics_absorb_sums_and_maxes():
    a, b = Metrics(events=5, ops=10), Metrics(events=3, ops=4)
    a.peak_mem_bytes, b.peak_mem_bytes = 100, 300
    a.absorb(b)
    assert a.events == 8 and a.ops == 14 and a.peak_mem_bytes == 300


def test_runresult_merge_accumulates_walls():
    r1 = RunResult(system="x", window_wall={0.0: 0.1}, total_wall=0.1, n_events=10)
    r2 = RunResult(system="x", window_wall={0.0: 0.2, 10.0: 0.3}, total_wall=0.5, n_events=20)
    r1.merge(r2)
    assert r1.window_wall[0.0] == pytest.approx(0.3)
    assert r1.latency == pytest.approx((0.3 + 0.3) / 2)
    assert r1.n_events == 30


def test_latency_throughput_zero_safe():
    rr = RunResult(system="x")
    assert rr.latency == 0.0 and rr.throughput == 0.0


def test_mixed_workload_with_non_kleene_query():
    events = [_ev(0, "A"), _ev(1, "B"), _ev(2, "B")]
    qs = [
        Query(qid="k", elems=seq(Atom("A"), Kleene("B")), window=10.0, slide=10.0),
        Query(qid="nk", elems=seq(Atom("A"), Atom("B")), window=10.0, slide=10.0),
    ]
    rr = run_system(events, qs, "hamlet")
    assert rr.results[("k", 0.0)]["COUNT(*)"] == 3.0
    assert rr.results[("nk", 0.0)]["COUNT(*)"] == 2.0
    # the non-Kleene query runs on a plan of its own, with that plan's counters
    for system, mode in engine._MODES.items():
        eng = HamletPlan(qs[1:], mode=mode).new_engine()
        for e in events:
            eng.on_event(e)
        eng.end_window()
        assert run_system(events, qs[1:], system).metrics == eng.m
        assert eng.m.peak_mem_bytes > 0


# patterns without a Kleene type, each with the end type a MIN/MAX may take
# (None: a trailing negation allows none)
_NON_KLEENE = (
    (seq(Atom("A"), Atom("B")), "B"),
    (seq(Atom("A"), Atom("B"), Atom("C")), "C"),
    (seq(Atom("A"), Neg("N"), Atom("B")), "B"),
    (seq(Atom("A"), Atom("B"), Neg("N")), None),
    (seq(Atom("A"), GroupKleene(seq(Atom("B"), Atom("C")))), "C"),
)


def _non_kleene_workload(seed):
    """2-5 queries over ``_NON_KLEENE`` with COUNT(*), COUNT(E), SUM, AVG
    and sometimes MIN/MAX; some have a unary predicate on B, and windows
    and slides differ between queries."""
    rng = random.Random(seed)
    qs = []
    for i in range(rng.randint(2, 5)):
        elems, end = rng.choice(_NON_KLEENE)
        aggs = (
            AggSpec("COUNT_STAR"), AggSpec("COUNT_E", "B"), AggSpec("SUM", "B", "v"), AggSpec("AVG", "A", "w")
        )
        if end is not None and rng.random() < 0.5:
            aggs += (AggSpec("MIN", end, "v"), AggSpec("MAX", end, "w"))
        where = {"B": (Pred("v", ">=", rng.choice([2, 5])),)} if rng.random() < 0.4 else {}
        window = rng.choice([6.0, 12.0])
        qs.append(
            Query(qid=f"n{i}", elems=elems, aggs=aggs, where=where, window=window, slide=window / 2)
        )
    return qs


@pytest.mark.parametrize("system", ["hamlet", "hamlet-static", "hamlet-nonshared"])
@pytest.mark.parametrize("seed", range(12))
def test_non_kleene_queries_run_on_hamlet_plans(system, seed):
    """Under every Hamlet system, queries without a Kleene type run on
    ``HamletPlan``s with no Kleene type, and every window instance's
    results match brute force."""
    events = random_events(seed + 1100, n_max=24, types="ABCN")
    qs = _non_kleene_workload(seed)
    plans = [plan for *_, plan in engine.window_executors(qs, system)]
    assert all(isinstance(plan, HamletPlan) and plan.E is None for plan in plans)
    rr = run_system(events, qs, system)
    by_qid = {q.qid: q for q in qs}
    assert {qid for qid, _ in rr.results} == (set(by_qid) if events else set())
    for (qid, start), aggs in rr.results.items():
        window = by_qid[qid].window
        in_window = [e for e in events if start <= e.time < start + window]
        assert_matches_brute(in_window, by_qid[qid], aggs)


def test_non_kleene_minmax_off_end_type_fails_loudly():
    """A MIN on a type that does not end the pattern raises, naming the
    query, under every Hamlet system; GRETA evaluates it."""
    q = Query(qid="nk", elems=seq(Atom("A"), Atom("B")), aggs=(AggSpec("MIN", "A", "v"),))
    events = [_ev(0, "A", 3.0), _ev(1, "B")]
    for system in ("hamlet", "hamlet-static", "hamlet-nonshared"):
        with pytest.raises(ValueError, match="nk"):
            run_system(events, [q], system)
    assert run_system(events, [q], "greta").results[("nk", 0.0)]["MIN(A.v)"] == 3.0


_TIE_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="known defect, ROADMAP item 5a: a same-time event is taken as a "
    "predecessor; brute force requires prev.time < cur.time",
)


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(s, marks=_TIE_DEFECT)
        for s in ("hamlet", "hamlet-static", "hamlet-nonshared")
    ]
    + ["greta", "sharon", "mcep"],
)
def test_equal_timestamps_match_brute(system):
    """SEQ(A, B+) over A(0), B(1), B(1): the two B's are not ordered, so
    brute force counts 2 trends. The second query makes hamlet and
    hamlet-static share the burst."""
    events = [_ev(0.0, "A"), _ev(1.0, "B"), _ev(1.0, "B")]
    qs = [
        Query(qid="q", elems=seq(Atom("A"), Kleene("B")), window=10.0, slide=10.0),
        Query(qid="c", elems=seq(Atom("C"), Kleene("B")), window=10.0, slide=10.0),
    ]
    want = brute_results(events, qs[0])["COUNT(*)"]
    assert want == 2.0
    assert run_system(events, qs, system).results[("q", 0.0)]["COUNT(*)"] == want


_SUM_AVG = (AggSpec("COUNT_STAR"), AggSpec("SUM", "B", "v"), AggSpec("AVG", "B", "v"))


@pytest.mark.xfail(
    strict=True,
    raises=OverflowError,
    reason="known defect, ROADMAP item 5a(ii): a count beyond double range "
    "is converted to float",
)
@pytest.mark.parametrize("aggs", [(AggSpec("COUNT_STAR"),), _SUM_AVG], ids=["count", "count-sum-avg"])
@pytest.mark.parametrize("system", ["greta", "hamlet", "hamlet-static", "hamlet-nonshared"])
def test_counts_beyond_double_range(system, aggs):
    """SEQ(A, B+) over one A and 1,100 B's has 2^1100 - 1 trends, more
    than a double holds. The second query makes hamlet and hamlet-static
    share the burst."""
    events = [_ev(0.0, "A")] + [_ev(1.0 + i, "B", 1.0) for i in range(1100)]
    qs = [
        Query(qid=qid, elems=seq(Atom(start), Kleene("B")), aggs=aggs, window=2000.0, slide=2000.0)
        for qid, start in (("q", "A"), ("c", "C"))
    ]
    run_system(events, qs, system)
