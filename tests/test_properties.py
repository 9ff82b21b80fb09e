"""Property-based equivalence: for arbitrary streams and workloads, all
engine paths must agree with the brute-force enumeration (hypothesis)."""
from hypothesis import given, settings, strategies as st

from repro.core.brute import brute_results
from repro.core.events import Event
from repro.core.greta import run_greta
from repro.core.hamlet import run_hamlet_set
from repro.core.queries import Atom, EdgePred, Kleene, Pred, Query, seq

from util import windowed

events_strategy = st.lists(
    st.tuples(st.sampled_from("ABCX"), st.integers(0, 9)),
    min_size=0,
    max_size=14,
).map(
    lambda specs: [
        Event(float(i), et, {"v": float(v)}) for i, (et, v) in enumerate(specs)
    ]
)

pattern_strategy = st.sampled_from(
    [
        seq(Atom("A"), Kleene("B")),
        seq(Atom("C"), Kleene("B")),
        seq(Kleene("B")),
        seq(Atom("A"), Kleene("B"), Atom("C")),
    ]
)

query_strategy = st.builds(
    lambda pat, thr, ep: Query(
        qid="q",
        elems=pat,
        where={"B": (Pred("v", ">=", thr),)} if thr else {},
        edge_pred=ep,
    ),
    pattern_strategy,
    st.sampled_from([0, 3, 6]),
    st.sampled_from([None, EdgePred("v", "<=")]),
)


@settings(max_examples=120, deadline=None)
@given(events_strategy, query_strategy)
def test_greta_equals_brute(events, q):
    want = brute_results(events, q)["COUNT(*)"]
    assert run_greta(events, q)["COUNT(*)"] == want


@settings(max_examples=120, deadline=None)
@given(events_strategy, query_strategy, st.sampled_from(["dynamic", "static", "nonshared"]))
def test_hamlet_equals_brute(events, q, mode):
    want = brute_results(events, q)["COUNT(*)"]
    got = run_hamlet_set(events, [q], mode=mode)["q"]["COUNT(*)"]
    assert got == want


@settings(max_examples=80, deadline=None)
@given(
    events_strategy,
    st.lists(query_strategy, min_size=2, max_size=4),
    st.sampled_from([2.0, 5.0, 100.0]),
)
def test_shared_workload_equals_brute(events, qs, pane):
    workload = [
        Query(qid=f"q{i}", elems=q.elems, where=q.where, edge_pred=q.edge_pred)
        for i, q in enumerate(qs)
    ]
    res = run_hamlet_set(events, windowed(workload, pane), mode="dynamic")
    for q in workload:
        assert res[q.qid]["COUNT(*)"] == brute_results(events, q)["COUNT(*)"]
