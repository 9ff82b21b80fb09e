"""Hamlet shared executor (Algorithm 1) — equivalence with GRETA and
brute force under every sharing mode, plus graphlet/burst/snapshot
mechanics (paper §3.3 and §4.2)."""
import dataclasses
import random

import pytest

from repro.core import hamlet as hamlet_mod
from repro.core.events import Event
from repro.core.greta import GretaState, run_greta
from repro.core.hamlet import HamletPlan, run_hamlet_set
from repro.core.queries import (
    AggSpec,
    Atom,
    EdgePred,
    Kleene,
    Neg,
    Pred,
    Query,
    seq,
)
from repro.core.workloads import workload1

from util import assert_matches_brute, random_events, random_query, windowed


def _set_of(seed, k):
    return [random_query(seed * 97 + i, qid=f"q{i}") for i in range(k)]


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
@pytest.mark.parametrize("seed", range(25))
def test_hamlet_matches_brute_random_workloads(mode, seed):
    events = random_events(seed, n_max=18)
    qs = _set_of(seed, 1 + seed % 4)
    res = run_hamlet_set(events, windowed(qs, [3.0, 7.0, 50.0][seed % 3]), mode=mode)
    for q in qs:
        assert_matches_brute(events, q, res[q.qid])


@pytest.mark.parametrize("seed", range(15))
def test_dynamic_equals_static_equals_nonshared(seed):
    """Sharing decisions must never change results, only cost."""
    events = random_events(seed + 500, n_max=18)
    qs = _set_of(seed + 500, 3)
    outs = [
        run_hamlet_set(events, qs, mode=m) for m in ("dynamic", "static", "nonshared")
    ]
    for q in qs:
        for other in outs[1:]:
            for key, val in outs[0][q.qid].items():
                got = other[q.qid][key]
                assert (val != val and got != got) or abs(val - got) < 1e-9 * max(1, abs(val))


@pytest.mark.parametrize("seed", range(10))
def test_hamlet_equals_greta_per_query(seed):
    events = random_events(seed + 900, n_max=16)
    qs = _set_of(seed + 900, 2)
    res = run_hamlet_set(events, qs, mode="dynamic")
    for q in qs:
        g = run_greta(events, q)
        for key, val in g.items():
            got = res[q.qid][key]
            assert (val != val and got != got) or abs(val - got) < 1e-9 * max(1, abs(val))


def _ev(t, et, v=0.0):
    return Event(t, et, {"v": v})


def _mk_engine(qs, mode="static", pane=100.0):
    return HamletPlan(windowed(qs, pane), mode=mode).new_engine()


Q1 = Query(qid="q1", elems=seq(Atom("A"), Kleene("B")))
Q2 = Query(qid="q2", elems=seq(Atom("C"), Kleene("B")))


def test_shared_graphlet_stores_events_once():
    eng = _mk_engine([Q1, Q2])
    for e in [_ev(0, "A"), _ev(1, "C"), _ev(2, "B"), _ev(3, "B"), _ev(4, "B")]:
        eng.on_event(e)
    eng.end_window()
    # 2 prefix events stored per matching query (1 each) + 3 B's stored once
    assert eng.m.stored_events == 2 + 3
    assert eng.exact_counts() == {"q1": 7, "q2": 7}


def test_nonshared_mode_replicates_kleene_events():
    eng = _mk_engine([Q1, Q2], mode="nonshared")
    for e in [_ev(0, "A"), _ev(1, "C"), _ev(2, "B"), _ev(3, "B"), _ev(4, "B")]:
        eng.on_event(e)
    eng.end_window()
    assert eng.m.stored_events == 2 + 3 * 2  # B's stored per query


def test_entry_snapshot_created_per_shared_graphlet():
    eng = _mk_engine([Q1, Q2])
    for e in [_ev(0, "A"), _ev(1, "B"), _ev(2, "A"), _ev(3, "B")]:
        eng.on_event(e)
    eng.end_window()
    # two B graphlets (split by the second A) -> two entry snapshots
    assert eng.m.snapshots_created == 2
    assert eng.m.splits == 0  # closures by other-type events are not splits


def test_divergent_predicates_create_event_snapshots():
    q1 = Query(qid="q1", elems=seq(Atom("A"), Kleene("B")))
    q2 = Query(qid="q2", elems=seq(Atom("A"), Kleene("B")), where={"B": (Pred("v", ">", 5),)})
    eng = _mk_engine([q1, q2])
    for e in [_ev(0, "A"), _ev(1, "B", 9), _ev(2, "B", 1), _ev(3, "B", 9)]:
        eng.on_event(e)
    eng.end_window()
    # entry snapshot + event snapshot for the divergent b(v=1)... at least
    assert eng.m.snapshots_created >= 2
    assert eng.exact_counts()["q1"] == 7
    assert eng.exact_counts()["q2"] == 3  # only the two v=9 B's


def test_edge_pred_query_diverges_every_event():
    q1 = Query(qid="q1", elems=seq(Atom("A"), Kleene("B")))
    q2 = Query(qid="q2", elems=seq(Atom("A"), Kleene("B")), edge_pred=EdgePred("v", "<="))
    eng = _mk_engine([q1, q2], mode="static")
    evs = [_ev(0, "A"), _ev(1, "B", 5), _ev(2, "B", 3), _ev(3, "B", 7)]
    for e in evs:
        eng.on_event(e)
    eng.end_window()
    # every shared B event needs an event-level snapshot (Definition 9)
    assert eng.m.snapshots_created >= 1 + 3
    assert_matches_brute(evs, q2, run_hamlet_set(evs, [q1, q2], mode="static")["q2"])


def test_dynamic_splits_under_snapshot_pressure():
    """With an edge-pred query in the set, the dynamic optimizer shares
    the clean queries and processes the divergent one separately."""
    q1 = Query(qid="q1", elems=seq(Atom("A"), Kleene("B")))
    q2 = Query(qid="q2", elems=seq(Atom("A"), Kleene("B")))
    q3 = Query(qid="q3", elems=seq(Atom("A"), Kleene("B")), edge_pred=EdgePred("v", "<="))
    evs = [_ev(0, "A")] + [_ev(1 + i, "B", (i * 7) % 10) for i in range(20)]
    eng = HamletPlan(windowed([q1, q2, q3], 5.0), mode="dynamic").new_engine()
    for e in evs:
        eng.on_event(e)
    eng.end_window()
    dyn_snaps = eng.m.snapshots_created
    eng_s = HamletPlan(windowed([q1, q2, q3], 5.0), mode="static").new_engine()
    for e in evs:
        eng_s.on_event(e)
    eng_s.end_window()
    assert dyn_snaps < eng_s.m.snapshots_created
    assert eng.exact_counts() == eng_s.exact_counts()


def test_pane_boundary_flushes_burst_but_keeps_graphlet():
    eng = _mk_engine([Q1, Q2], pane=2.0)
    for e in [_ev(0, "A"), _ev(1.0, "B"), _ev(2.5, "B"), _ev(4.5, "B")]:
        eng.on_event(e)
    eng.end_window()
    assert eng.m.bursts == 3  # one per pane
    assert eng.m.snapshots_created == 1  # still a single shared graphlet
    assert eng.exact_counts()["q1"] == 7


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
def test_graphlet_splits_and_merges_across_panes(mode):
    """§4.2's split and merge. A graphlet outlives its pane, so the next
    pane's burst decides again against the open graphlet's sharers. The
    predicate query fails every event of the middle pane, so the dynamic
    optimizer leaves it out (Thm 4.2): the graphlet splits and the other
    two go on in a new one. It matches the last pane's event, so all three
    merge again: one split and one merge. Static and nonshared never
    change their decision."""
    plain = seq(Atom("A"), Kleene("B"))
    qs = windowed(
        [
            Query(qid="q1", elems=plain),
            Query(qid="q2", elems=plain),
            Query(qid="q3", elems=plain, where={"B": (Pred("v", ">", 5),)}),
        ],
        2.0,
    )
    evs = [_ev(0, "A"), _ev(0.5, "B", 9), _ev(1.0, "B", 9), _ev(2.5, "B", 1), _ev(3.0, "B", 1), _ev(4.5, "B", 9)]
    eng = HamletPlan(qs, mode=mode).new_engine()
    for e in evs:
        eng.on_event(e)
    eng.end_window()
    if mode == "dynamic":
        assert eng.m.splits == eng.m.merges == 1
    else:
        assert eng.m.splits == eng.m.merges == 0
    res = eng.results()
    for q in qs:
        assert_matches_brute(evs, q, res[q.qid])


def test_exact_counts_beyond_double_precision():
    eng = _mk_engine([Q1, Q2])
    eng.on_event(_ev(0, "A"))
    for i in range(80):
        eng.on_event(_ev(i + 1.0, "B"))
    eng.end_window()
    assert eng.exact_counts()["q1"] == 2**80 - 1


def test_engine_rejects_bad_mode():
    with pytest.raises(ValueError):
        HamletPlan([Q1], mode="sometimes")


def test_minmax_validation_rejects_non_end_type():
    q = Query(
        qid="q",
        elems=seq(Atom("A"), Kleene("B"), Atom("C")),
        aggs=(AggSpec("MIN", "B", "v"),),  # B is not an end type here
    )
    with pytest.raises(ValueError):
        HamletPlan([q])


def test_engine_is_picklable_mid_stream():
    """The streaming runtime pickles live engines between micro-batches."""
    import pickle

    eng = _mk_engine([Q1, Q2], mode="dynamic", pane=2.0)
    for e in [_ev(0, "A"), _ev(1, "B"), _ev(2.5, "B")]:
        eng.on_event(e)
    eng2 = pickle.loads(pickle.dumps(eng))
    for e in [_ev(3.0, "B"), _ev(3.5, "B")]:
        eng.on_event(e)
        eng2.on_event(e)
    eng.end_window()
    eng2.end_window()
    assert eng.exact_counts() == eng2.exact_counts()


def test_pickled_engine_does_not_grow_with_closed_graphlets():
    """The streaming runtime pickles live engines, so a closed graphlet's
    snapshots must not stay in the engine for the rest of its window."""
    import pickle

    def pickled_after(rounds):
        eng = _mk_engine([Q1, Q2])
        for i in range(rounds):  # each round closes one shared B graphlet
            for j, et in enumerate("ACB"):
                eng.on_event(_ev(3 * i + j, et))
        eng.end_window()
        return len(pickle.dumps(eng))

    # only the exact counts' digits may grow: about one bit per B event
    assert pickled_after(80) - pickled_after(20) < 64


TWO_KLEENE = seq(Kleene("A"), Kleene("B"))


@pytest.mark.parametrize("system", ["greta", "hamlet", "hamlet-static", "hamlet-nonshared"])
def test_two_kleene_edge_predicate(system):
    """SEQ(A+, B+) with v <= over A(1), B(5), B(3): the edge predicate also
    holds between adjacent B's, so the trends are (a, b5) and (a, b3) only.
    Alone, and sharing its A's with a query without edge predicate."""
    from repro.core.engine import run_system

    q = Query(qid="q", elems=TWO_KLEENE, edge_pred=EdgePred("v", "<="))
    other = Query(qid="other", elems=TWO_KLEENE)
    evs = [_ev(0, "A", 1), _ev(1, "B", 5), _ev(2, "B", 3)]
    assert run_system(evs, [q], system).results[("q", 0.0)]["COUNT(*)"] == 2
    res = run_system(evs, [q, other], system).results
    assert res[("q", 0.0)]["COUNT(*)"] == 2
    assert res[("other", 0.0)]["COUNT(*)"] == 3


def _two_kleene_query(seed, qid):
    rng = random.Random(seed)
    return Query(
        qid=qid,
        elems=rng.choice(
            [
                TWO_KLEENE,
                seq(Kleene("B"), Kleene("A")),
                seq(Kleene("A"), Atom("C"), Kleene("B")),
                seq(Atom("C"), Kleene("A"), Kleene("B")),
                seq(Kleene("A"), Neg("N"), Kleene("B")),
            ]
        ),
        aggs=(AggSpec("COUNT_STAR"), AggSpec("SUM", "B", "v"), AggSpec("COUNT_E", "A")),
        where={"A": (Pred("v", ">=", 3),)} if rng.random() < 0.3 else {},
        edge_pred=rng.choice([None, EdgePred("v", "<="), EdgePred("v", ">=")]),
    )


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
@pytest.mark.parametrize("seed", range(20))
def test_two_kleene_edge_predicates_match_brute(mode, seed):
    events = random_events(seed + 3000, n_max=14, types="ABCN")
    qs = [_two_kleene_query(seed * 31 + i, f"q{i}") for i in range(1 + seed % 3)]
    res = run_hamlet_set(events, windowed(qs, [2.0, 5.0, 50.0][seed % 3]), mode=mode)
    for q in qs:
        assert_matches_brute(events, q, res[q.qid])


# -- the columnar layout over many sharers --------------------------------

_COLUMN_PATTERNS = (
    seq(Atom("A"), Kleene("B")),
    seq(Atom("C"), Kleene("B")),
    seq(Atom("A"), Kleene("B"), Atom("C")),
    seq(Kleene("B")),
    seq(Kleene("B"), Atom("D")),
    seq(Atom("A"), Neg("N"), Kleene("B")),
)
_COLUMN_AGGS = (
    (AggSpec("COUNT_STAR"),),
    (AggSpec("COUNT_STAR"), AggSpec("SUM", "B", "v")),
    (AggSpec("COUNT_E", "B"), AggSpec("AVG", "B", "v")),
    (AggSpec("SUM", "B", "w"), AggSpec("AVG", "B", "v"), AggSpec("COUNT_STAR")),
)


def _column_set(seed, k):
    """k queries over Kleene B with mixed aggregates; about one in six has
    a unary predicate on B and one in ten an edge predicate, so most share
    every burst and a minority diverges."""
    rng = random.Random(seed)
    qs = []
    for i in range(k):
        where = {"B": (Pred("v", ">=", rng.choice([2, 4, 6])),)} if rng.random() < 0.17 else {}
        edge = EdgePred("v", "<=") if rng.random() < 0.1 else None
        qs.append(
            Query(
                qid=f"c{i}",
                elems=_COLUMN_PATTERNS[i % len(_COLUMN_PATTERNS)],
                aggs=_COLUMN_AGGS[i % len(_COLUMN_AGGS)],
                where=where,
                edge_pred=edge,
            )
        )
    return qs


def _bursty_events(seed, n=70):
    """Runs of 1-6 B events between single A, C, D or N events."""
    rng = random.Random(seed)
    types = []
    while len(types) < n:
        if rng.random() < 0.5:
            types += ["B"] * rng.randint(1, 6)
        types.append(rng.choice("ACDN"))
    return [
        Event(i + rng.random() * 0.5, et, {"v": rng.randint(0, 9), "w": rng.random() * 5})
        for i, et in enumerate(types[:n])
    ]


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
@pytest.mark.parametrize("k", [2, 20, 50])
def test_columns_equal_greta(k, mode):
    """Every query's results equal GRETA's with k queries in one set: exact
    counts, channels within 1e-9 (NaN equals NaN). In dynamic mode some
    burst shares with a proper subset of at least two sharers, so the
    column kernels also run with non-sharer positions left alone."""
    from repro.core.greta import GretaState

    subsets = 0
    for seed in range(3):
        events = _bursty_events(seed)
        qs = _column_set(seed * 7 + k, k)
        eng = HamletPlan(windowed(qs, 100.0), mode=mode).new_engine()
        open_shared = eng._open_shared

        def record(sharers, open_shared=open_shared):
            nonlocal subsets
            subsets += 2 <= len(sharers) < k
            open_shared(sharers)

        eng._open_shared = record
        for e in events:
            eng.on_event(e)
        eng.end_window()
        got, counts = eng.results(), eng.exact_counts()
        for q in qs:
            ref = GretaState(q)
            for e in events:
                ref.on_event(e)
            assert counts[q.qid] == ref.exact_count(), (seed, q.qid)
            for name, want in ref.results().items():
                val = got[q.qid][name]
                assert (want != want and val != val) or abs(val - want) <= 1e-9 * max(
                    1.0, abs(want)
                ), (seed, q.qid, name, val, want)
    if mode == "dynamic" and k > 2:
        assert subsets > 0


# -- the per-event Eq. 2 kernel outside shared graphlets --------------------

# (pattern, aggregates): trailing negation, a channel and MIN/MAX on
# non-Kleene types, and a query with two Kleene types
_KERNEL_SHAPES = (
    (seq(Atom("A"), Kleene("B"), Neg("N")), (AggSpec("COUNT_STAR"), AggSpec("SUM", "B", "v"))),
    (
        seq(Atom("A"), Kleene("B"), Atom("C")),
        (AggSpec("COUNT_STAR"), AggSpec("SUM", "C", "v"), AggSpec("AVG", "B", "w")),
    ),
    (
        seq(Kleene("B"), Atom("D")),
        (AggSpec("COUNT_STAR"), AggSpec("MAX", "D", "v"), AggSpec("MIN", "D", "v")),
    ),
    (
        seq(Kleene("A"), Kleene("B")),
        (AggSpec("COUNT_STAR"), AggSpec("COUNT_E", "A"), AggSpec("SUM", "A", "v")),
    ),
    (seq(Atom("C"), Kleene("B")), (AggSpec("AVG", "B", "v"), AggSpec("COUNT_E", "B"))),
    (seq(Atom("A"), Neg("N"), Kleene("B"), Atom("C")), (AggSpec("COUNT_STAR"), AggSpec("SUM", "C", "w"))),
)


def _kernel_set(seed, k):
    """k queries over Kleene B drawn from ``_KERNEL_SHAPES``. Unary
    predicates fall on A, C, N and (rarely) B; about one in ten queries has
    an edge predicate."""
    rng = random.Random(seed)
    qs = []
    for i in range(k):
        elems, aggs = _KERNEL_SHAPES[i % len(_KERNEL_SHAPES)]
        where = {}
        for etype, p in (("A", 0.3), ("C", 0.3), ("N", 0.3), ("B", 0.1)):
            if rng.random() < p:
                where[etype] = (Pred("v", ">=", rng.choice([2, 4, 6])),)
        edge = EdgePred("v", "<=") if rng.random() < 0.1 else None
        qs.append(Query(qid=f"k{i}", elems=elems, aggs=aggs, where=where, edge_pred=edge))
    return qs


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
@pytest.mark.parametrize("k", [2, 20, 50])
def test_kernel_equals_greta(k, mode):
    """The Eq. 2 kernel's results equal GRETA's on patterns with negation,
    non-Kleene channels and MIN/MAX, unary predicates on non-Kleene types
    and two Kleene types: exact counts, channels within 1e-9 (NaN equals
    NaN)."""
    from repro.core.greta import GretaState

    for seed in range(3):
        events = _bursty_events(seed)
        qs = _kernel_set(seed * 11 + k, k)
        eng = HamletPlan(windowed(qs, 100.0), mode=mode).new_engine()
        for e in events:
            eng.on_event(e)
        eng.end_window()
        got, counts = eng.results(), eng.exact_counts()
        for q in qs:
            ref = GretaState(q)
            for e in events:
                ref.on_event(e)
            assert counts[q.qid] == ref.exact_count(), (seed, q.qid)
            for name, want in ref.results().items():
                val = got[q.qid][name]
                assert (want != want and val != val) or abs(val - want) <= 1e-9 * max(
                    1.0, abs(want)
                ), (seed, q.qid, name, val, want)


# the work counters of one window over ``_bursty_events(0)``, per query pool
# and mode, as recorded before the per-event kernel replaced the per-query
# Eq. 2 path: a change to the engine's work accounting shows here. The
# dynamic ``coeff_ops`` are those of closed-form uniform runs (one update per
# run, not one per event)
_PINNED_COUNTERS = {
    ("column", "dynamic"): (6081, 150, 11, 61, 17576),
    ("column", "static"): (6406, 134, 0, 66, 17064),
    ("column", "nonshared"): (4128, 1049, 0, 0, 39144),
    ("kernel", "dynamic"): (6270, 160, 15, 61, 27440),
    ("kernel", "static"): (6601, 147, 0, 66, 27024),
    ("kernel", "nonshared"): (4329, 1090, 0, 0, 42000),
}


@pytest.mark.parametrize("pool, mode", sorted(_PINNED_COUNTERS))
def test_counters_pinned(pool, mode):
    """``ops``, ``stored_events``, ``coeff_ops``, ``snapshots_created`` and
    ``peak_mem_bytes`` of a fixed 20-query set over a fixed input."""
    qs = (_column_set if pool == "column" else _kernel_set)(5, 20)
    eng = HamletPlan(windowed(qs, 100.0), mode=mode).new_engine()
    for e in _bursty_events(0):
        eng.on_event(e)
    eng.end_window()
    m = eng.m
    got = (m.ops, m.stored_events, m.coeff_ops, m.snapshots_created, m.peak_mem_bytes)
    assert got == _PINNED_COUNTERS[pool, mode]


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
def test_kleene_predicates_evaluated_once_per_event(mode, monkeypatch):
    """Each burst event's unary predicates on the Kleene type are evaluated
    once, for the sharing decision and the execution alike: ``matches``
    runs once per (B event, query with a predicate on B), and never for a
    query whose only divergence is an edge predicate."""
    qs = _column_set(5, 20)
    pred = {q.qid for q in qs if q.where.get("B")}
    edge_only = {q.qid for q in qs if q.edge_pred and not q.where.get("B")}
    assert pred and edge_only
    calls = {}
    matches = Query.matches

    def counted(q, e):
        if e.etype == "B":
            calls[q.qid, e.time] = calls.get((q.qid, e.time), 0) + 1
        return matches(q, e)

    monkeypatch.setattr(Query, "matches", counted)
    events = _bursty_events(0)
    eng = HamletPlan(windowed(qs, 100.0), mode=mode).new_engine()
    for e in events:
        eng.on_event(e)
    eng.end_window()
    assert calls == {(qid, e.time): 1 for qid in pred for e in events if e.etype == "B"}


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
def test_kernel_view_cache_evicts(mode):
    """More distinct predicate failures than a table set keeps views: its
    cache is cleared at ``_MAX_VIEWS`` and rebuilt, and the results stay
    GRETA's."""
    from repro.core.greta import GretaState
    from repro.core.hamlet import _MAX_VIEWS

    rng = random.Random(14)
    qs = [
        Query(qid=f"q{i}", elems=seq(Atom("A"), Kleene("B")), where={"B": (Pred(f"b{i}", "==", 1.0),)})
        for i in range(6)
    ]
    events = [
        Event(t, "A", {}) if t % 12 == 0 else Event(t, "B", {f"b{i}": float(rng.randint(0, 1)) for i in range(6)})
        for t in range(300)
    ]
    fails = {frozenset(i for i in range(6) if e.attrs[f"b{i}"] != 1.0) for e in events if e.etype == "B"}
    assert len(fails) > _MAX_VIEWS
    plan = HamletPlan(windowed(qs, 1000.0), mode=mode)
    eng = plan.new_engine()
    for e in events:
        eng.on_event(e)
    eng.end_window()
    counts = eng.exact_counts()
    for q in qs:
        ref = GretaState(q)
        for e in events:
            ref.on_event(e)
        assert counts[q.qid] == ref.exact_count(), q.qid
    tables = [*plan.kernels.values(), plan.e_open, plan.e_plain, plan.e_recd]
    while tables:
        ker = tables.pop()
        assert len(ker.views) <= _MAX_VIEWS
        tables += ker.views.values()


# -- closed-form uniform runs in a shared graphlet ---------------------------

# (pattern, the type its MIN/MAX can be on: an end type, the other type
# whose SUM enters the graphlet through its entry snapshot)
_UNIFORM_PATTERNS = {
    "prefix": (seq(Atom("A"), Kleene("B")), "B", "A"),
    "kleene_start": (seq(Kleene("B"), Atom("D")), "D", "D"),  # the ONE term
    "neg_mid": (seq(Atom("A"), Neg("N"), Kleene("B")), "B", "A"),
    "suffix": (seq(Atom("A"), Kleene("B"), Atom("C")), "C", "A"),
}


def _uniform_set(pattern):
    """Three sharers of one pattern's B's, none with a predicate: COUNT(*),
    COUNT(B), SUM and AVG on B, and SUM on another type; MIN and MAX on the
    end type; COUNT(*)."""
    elems, end, other = _UNIFORM_PATTERNS[pattern]
    return [
        Query(qid="lin", elems=elems, aggs=(
            AggSpec("COUNT_STAR"), AggSpec("COUNT_E", "B"), AggSpec("SUM", "B", "v"),
            AggSpec("AVG", "B", "v"), AggSpec("SUM", other, "v"),
        )),
        Query(qid="ext", elems=elems, aggs=(
            AggSpec("COUNT_STAR"), AggSpec("MIN", end, "v"), AggSpec("MAX", end, "v"),
        )),
        Query(qid="cnt", elems=elems),
    ]


def _uniform_events(b):
    """Two A's with an N between them, a C, then a run of ``b`` B's with
    float values, then a D and a C."""
    evs = [_ev(0.0, "A", 3.0), _ev(0.3, "N", 1.0), _ev(0.6, "A", 2.0), _ev(0.8, "C", 4.0)]
    evs += [_ev(1.0 + i, "B", 0.5 + (i * 7) % 10) for i in range(b)]
    return evs + [_ev(b + 1.0, "D", 6.0), _ev(b + 2.0, "C", 8.0)]


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
@pytest.mark.parametrize("pattern", sorted(_UNIFORM_PATTERNS))
def test_uniform_runs_match_brute(pattern, mode):
    """A burst of 1-12 B's that every sharer matches is one closed-form
    update, and its results equal brute force: COUNT(*), COUNT(E), SUM,
    AVG, MIN and MAX, with and without the ONE term and a negation cut."""
    qs = windowed(_uniform_set(pattern), 100.0)
    for b in range(1, 13):
        evs = _uniform_events(b)
        eng = HamletPlan(qs, mode=mode).new_engine()
        for e in evs:
            eng.on_event(e)
        eng.end_window()
        # no event snapshot: the entry snapshot alone when shared
        assert eng.m.snapshots_created == (0 if mode == "nonshared" else 1), b
        got = eng.results()
        for q in qs:
            assert_matches_brute(evs, q, got[q.qid])


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
def test_uniform_runs_across_panes_and_foreign_types(mode):
    """Bursts cut by pane boundaries, with events of types outside every
    template inside them: each pane's run is a closed-form update of the
    one graphlet, and the results equal brute force."""
    for pattern in sorted(_UNIFORM_PATTERNS):
        qs = windowed(_uniform_set(pattern), 2.0)
        evs = [_ev(0.0, "A", 3.0), _ev(0.2, "C", 1.0)]
        for i in range(11):
            evs.append(_ev(0.5 + i * 0.7, "B", float(i % 4)))
            if i % 3 == 1:
                evs.append(_ev(0.8 + i * 0.7, "X" if i % 2 else "Z", 5.0))
        evs += [_ev(9.0, "D", 2.0), _ev(9.5, "C", 7.0)]
        eng = HamletPlan(qs, mode=mode).new_engine()
        for e in evs:
            eng.on_event(e)
        eng.end_window()
        assert eng.m.bursts == 4  # one per pane: the B's span panes 0-3
        assert eng.m.snapshots_created == (0 if mode == "nonshared" else 1)
        got = eng.results()
        for q in qs:
            assert_matches_brute(evs, q, got[q.qid])


def test_predicate_failures_cut_a_burst_into_uniform_runs():
    """Static mode: a sharer's predicate fails at two events mid-burst.
    Those take event snapshots; the runs before, between and after them
    are closed-form updates, and the results equal brute force."""
    aggs = (AggSpec("COUNT_STAR"), AggSpec("SUM", "B", "v"), AggSpec("MAX", "B", "v"))
    qs = windowed([
        Query(qid="all", elems=seq(Atom("A"), Kleene("B")), aggs=aggs),
        Query(qid="big", elems=seq(Atom("A"), Kleene("B")), aggs=aggs,
              where={"B": (Pred("v", ">=", 5),)}),
        Query(qid="pre", elems=seq(Atom("C"), Kleene("B")), aggs=aggs),
    ], 100.0)
    values = [9.0, 6.5, 1.0, 7.0, 8.0, 9.5, 2.0, 5.0]
    evs = [_ev(0.0, "A", 1.0), _ev(0.5, "C", 1.0)]
    evs += [_ev(1.0 + i, "B", v) for i, v in enumerate(values)]
    eng = HamletPlan(qs, mode="static").new_engine()
    for e in evs:
        eng.on_event(e)
    eng.end_window()
    assert eng.m.snapshots_created == 1 + 2  # the entry and the two failures
    assert eng.m.coeff_ops > 0  # three uniform runs
    got = eng.results()
    for q in qs:
        assert_matches_brute(evs, q, got[q.qid])


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
def test_long_uniform_burst_counts_exactly(mode):
    """One A and 1,100 B's: the exact count is 2^1100 - 1 in every mode. A
    SUM over the burst leaves double range: it raises ``OverflowError``
    rather than give inf or NaN (ROADMAP item 5a)."""
    evs = [_ev(0.0, "A")] + [_ev(1.0 + i, "B", 1.0) for i in range(1100)]
    eng = _mk_engine([Q1, Q2], mode=mode, pane=2000.0)
    for e in evs:
        eng.on_event(e)
    eng.end_window()
    assert eng.exact_counts() == {"q1": 2**1100 - 1, "q2": 0}
    both = [Q1, Query(qid="s", elems=Q1.elems, aggs=(AggSpec("SUM", "B", "v"),))]
    with pytest.raises(OverflowError):
        eng = _mk_engine(both, mode=mode, pane=2000.0)
        for e in evs:
            eng.on_event(e)
        eng.end_window()
        eng.results()


@pytest.mark.parametrize("mode", ["dynamic", "static"])
def test_uniform_run_cost_does_not_grow_with_its_length(mode):
    """A uniform burst creates no snapshot beyond the graphlet's entry, and
    its coefficient work is the same for 3 events as for 300."""
    aggs = (AggSpec("COUNT_STAR"), AggSpec("SUM", "B", "v"), AggSpec("COUNT_E", "B"))
    qs = [Query(qid=f"q{i}", elems=seq(Atom("AC"[i % 2]), Kleene("B")), aggs=aggs) for i in range(4)]

    def counters(b):
        eng = _mk_engine(qs, mode=mode, pane=1000.0)
        for e in [_ev(0.0, "A"), _ev(0.5, "C")] + [_ev(1.0 + i, "B", 0.25) for i in range(b)]:
            eng.on_event(e)
        eng.end_window()
        return eng.m

    short, long_ = counters(3), counters(300)
    assert short.snapshots_created == long_.snapshots_created == 1
    assert short.coeff_ops == long_.coeff_ops > 0
    assert long_.stored_events - short.stored_events == 297


# -- decisions no burst can change -------------------------------------------


def _count_choose_plan(monkeypatch) -> list:
    """Count the executor's ``choose_plan`` calls: the list gets each
    call's burst size."""
    calls = []
    choose = hamlet_mod.choose_plan

    def counted(stats, **kw):
        calls.append(stats.b)
        return choose(stats, **kw)

    monkeypatch.setattr(hamlet_mod, "choose_plan", counted)
    return calls


def _decision_set(variant):
    """``workload1`` over Kleene B, or one of its variants whose dynamic
    decision a burst can change."""
    qs = workload1(2 if variant == "pair" else 5, kleene_type="B", prefixes=("A", "C"))
    if variant == "unary":
        qs[0] = dataclasses.replace(qs[0], where={"B": (Pred("v", ">=", 3),)})
    elif variant == "edge":
        qs[0] = dataclasses.replace(qs[0], edge_pred=EdgePred("v", "<="))
    return windowed(qs, 100.0)


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
@pytest.mark.parametrize("variant", ["workload1", "unary", "edge", "pair"])
def test_choose_plan_called_where_a_burst_can_change_it(variant, mode, monkeypatch):
    """A ``workload1`` plan shares every burst without asking the
    optimizer (Thm 4.1, Eq. 8), and so does every 'static' and 'nonshared'
    plan; a unary predicate on E, an edge predicate or a pair of queries
    leaves the dynamic decision to ``choose_plan``, once per burst. The
    counters count per burst either way."""
    calls = _count_choose_plan(monkeypatch)
    eng = HamletPlan(_decision_set(variant), mode=mode).new_engine()
    events = _bursty_events(3)
    for e in events:
        eng.on_event(e)
    eng.end_window()
    m = eng.m
    assert m.bursts > 5 and m.decisions == m.bursts
    if mode == "dynamic" and variant != "workload1":
        assert len(calls) == m.bursts
    else:
        assert calls == [] and m.plans_considered == m.bursts
    if mode == "static" or (mode == "dynamic" and variant == "workload1"):
        assert m.shared_bursts == m.bursts
    for q in eng.plan.qs:
        ref = GretaState(q)
        for e in events:
            ref.on_event(e)
        assert eng.exact_counts()[q.qid] == ref.exact_count(), q.qid


# -- Eq. 3 results: the end type's totals, or pending under a trailing negation


def _negation_stream(seed):
    """14 events: A's, bursts of B's and C's, with a C that
    ``_pending_set``'s negation matches (v >= 3) after an A and a B, and
    a B right after it."""
    rng = random.Random(seed)

    def some(n):
        out = []
        while len(out) < n:
            out += rng.choice([["A"], ["B"] * rng.randint(1, 3), ["C"]])
        return out[:n]

    types = ["A", "B", *some(4), "C", "B", *some(6)]
    evs = [Event(i + rng.random() * 0.5, et, {"v": float(rng.randint(0, 9))}) for i, et in enumerate(types)]
    evs[6].attrs["v"] = 5.0
    return evs


def _pending_set():
    """``SEQ(A, B+, NOT C)`` with SUM and AVG on B, next to three plain
    ``SEQ(A, B+)`` queries."""
    sums = (AggSpec("COUNT_STAR"), AggSpec("SUM", "B", "v"), AggSpec("AVG", "B", "v"))
    return windowed(
        [
            Query(qid="neg", elems=seq(Atom("A"), Kleene("B"), Neg("C")), aggs=sums,
                  where={"C": (Pred("v", ">=", 3),)}),
            *(Query(qid=f"p{i}", elems=seq(Atom("A"), Kleene("B")), aggs=sums) for i in range(3)),
        ],
        100.0,
    )


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
@pytest.mark.parametrize("seed", range(8))
def test_trailing_negation_results_stay_pending(seed, mode):
    """Each position's Eq. 3 sum is its end type's totals, except under a
    trailing negation, whose pending column a matched negative voids while
    the totals go on: after a matched C and more B's, the negation query
    differs from the plain ones and equals brute force and GRETA's exact
    count, in every mode."""
    events = _negation_stream(seed)
    qs = _pending_set()
    eng = HamletPlan(qs, mode=mode).new_engine()
    for e in events:
        eng.on_event(e)
    eng.end_window()
    res, counts = eng.results(), eng.exact_counts()
    for q in qs:
        assert_matches_brute(events, q, res[q.qid])
        ref = GretaState(q)
        for e in events:
            ref.on_event(e)
        assert counts[q.qid] == ref.exact_count(), q.qid
    assert res["neg"] != res["p0"]
