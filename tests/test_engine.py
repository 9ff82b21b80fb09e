"""Workload-level facade: window instancing, system dispatch, metrics
(paper §6.1 metric definitions)."""
import pytest

from repro.core.brute import brute_results
from repro.core.engine import RunResult, SYSTEMS, run_system, window_instances
from repro.core.events import Event
from repro.core.hamlet import Metrics
from repro.core.queries import Atom, Kleene, Query, seq

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
        make_stateful_func([q], "sharon", 10.0)


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
    # the non-Kleene query's GRETA graph counts toward peak memory as in greta
    greta_mem = run_system(events, qs[1:], "greta").metrics.peak_mem_bytes
    for system in ("hamlet", "hamlet-static", "hamlet-nonshared"):
        assert run_system(events, qs[1:], system).metrics.peak_mem_bytes == greta_mem > 0


_TIE_DEFECT = pytest.mark.xfail(
    strict=True,
    reason="known defect, ROADMAP item 5a: a same-time event is taken as a "
    "predecessor; brute force requires prev.time < cur.time",
)


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(s, marks=_TIE_DEFECT)
        for s in ("greta", "hamlet", "hamlet-static", "hamlet-nonshared", "sharon")
    ]
    + ["mcep"],
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
