"""Dynamic sharing optimizer: cost model properties, per-burst decisions,
query-set choice, Theorems 4.1/4.2 behaviour (paper §4)."""
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.optimizer import (
    BurstStats, SharingPlan, _divergent_events, benefit, benefit_simple, choose_plan, fixed_plan,
)


def _stats(k=4, b=6, divergent=(), edge_pred=()):
    qids = tuple(f"q{i}" for i in range(k))
    # a divergent query fails the first event
    misses = {qid: frozenset({0}) if qid in divergent else frozenset() for qid in qids}
    return BurstStats(b=b, qids=qids, misses=misses, edge_pred_qids=frozenset(edge_pred))


def test_benefit_grows_with_k():
    b1 = benefit(b=10, n=100, g=10, s_c=0, s_p=1, k=2, p=2)
    b2 = benefit(b=10, n=100, g=10, s_c=0, s_p=1, k=10, p=2)
    assert b2 > b1 > 0


def test_benefit_shrinks_with_snapshots():
    clean = benefit(b=10, n=100, g=10, s_c=0, s_p=1, k=3, p=2)
    snappy = benefit(b=10, n=100, g=10, s_c=10, s_p=10, k=3, p=2)
    assert snappy < clean


def test_benefit_can_go_negative():
    assert benefit(b=4, n=10, g=200, s_c=4, s_p=20, k=2, p=3) < 0


def _fixed(mode, k, unary_on_kleene=False, edge_preds=False):
    return fixed_plan(
        mode=mode, all_qids=frozenset(f"q{i}" for i in range(k)),
        unary_on_kleene=unary_on_kleene, edge_preds=edge_preds,
    )


def test_static_mode_always_shares_all():
    plan = _fixed("static", 4)
    assert len(plan.shared) == 4


def test_nonshared_mode_never_shares():
    plan = _fixed("nonshared", 4)
    assert plan.shared == frozenset()


def test_single_query_cannot_share():
    plan = _fixed("dynamic", 1)
    assert plan.shared == frozenset()


def test_clean_burst_is_shared_by_all():
    plan = choose_plan(_stats(k=5), n_so_far=50, g_active=0, s_p_live=1, p_avg=2)
    assert len(plan.shared) == 5 and plan.s_c_est == 0


def test_thm41_no_snapshot_queries_always_in_plan():
    plan = choose_plan(
        _stats(k=5, divergent=("q4",)), n_so_far=50, g_active=0, s_p_live=1, p_avg=2
    )
    assert {"q0", "q1", "q2", "q3"} <= set(plan.shared)


def test_thm42_cheap_divergence_still_shared():
    # small graphlet, big n: snapshot cost << recomputation cost
    plan = choose_plan(
        _stats(k=3, b=4, divergent=("q2",)), n_so_far=500, g_active=0, s_p_live=1, p_avg=1,
    )
    assert "q2" in plan.shared


def test_thm42_expensive_divergence_excluded():
    # huge active graphlet: per-snapshot resolution dominates
    plan = choose_plan(
        _stats(k=3, b=2, divergent=("q2",)), n_so_far=4, g_active=10_000, s_p_live=1, p_avg=4,
    )
    assert "q2" not in plan.shared


def test_edge_pred_queries_count_as_full_divergence():
    stats = _stats(k=3, b=8, edge_pred=("q1",))
    plan = choose_plan(stats, n_so_far=4, g_active=5_000, s_p_live=1, p_avg=4)
    assert "q1" not in plan.shared and plan.m_snapshot_queries == 1


def test_split_when_overall_benefit_negative():
    # every query diverges on most events -> sharing cannot pay off
    b = 6
    misses = {f"q{i}": frozenset(j for j in range(b) if (j + i) % 2) for i in range(4)}
    stats = BurstStats(b=b, qids=tuple(misses), misses=misses, edge_pred_qids=frozenset())
    plan = choose_plan(stats, n_so_far=2, g_active=50_000, s_p_live=40, p_avg=4)
    assert plan.shared == frozenset()


@pytest.mark.parametrize(
    "s_p_live, share",
    # k = 2, b = g = 1: the Eq. 8 benefit is n·(2 − s_p), up to log2(1 + 1e-12)
    [(1, True), (3, False)],
)
def test_pred_free_burst_fast_path_plan(s_p_live, share):
    """A burst that every query matches, passed without miss sets as the
    executor passes a predicate-free pair's bursts, gets the plan of
    explicit empty miss sets, the Eq. 8 split included."""
    kw = dict(n_so_far=10, g_active=0, s_p_live=s_p_live, p_avg=2)
    qids = ("q0", "q1")
    general = BurstStats(
        b=1, qids=qids, misses=dict.fromkeys(qids, frozenset()), edge_pred_qids=frozenset()
    )
    fast = BurstStats(b=1, qids=qids, misses={}, edge_pred_qids=frozenset())
    plan = choose_plan(fast, **kw)
    assert plan == choose_plan(general, **kw)
    assert plan == SharingPlan(
        shared=frozenset(qids) if share else frozenset(), plans_considered=1
    )


def test_plans_considered_is_m_plus_one():
    plan = choose_plan(
        _stats(k=6, divergent=("q1", "q3", "q5")), n_so_far=50, g_active=0, s_p_live=1, p_avg=2,
    )
    assert plan.plans_considered == 4


def test_simple_model_matches_refined_direction():
    """Both Def. 11 and Def. 12 models agree sharing clean big bursts wins."""
    kw = dict(b=20, n=200, g=20, s_c=0, s_p=1, k=8)
    assert benefit(p=2, **kw) > 0
    assert benefit_simple(t=2, **kw) > 0


@settings(max_examples=300, deadline=None)
@given(
    b=st.integers(1, 10**6),
    n_so_far=st.integers(0, 10**9),
    g_active=st.integers(0, 10**9),
    s_p_live=st.integers(0, 2),
    p_avg=st.floats(0.0, 1e3),
    k=st.integers(3, 60),
)
def test_predicate_free_dynamic_decision_is_fixed(b, n_so_far, g_active, s_p_live, p_avg, k):
    """The decision a Hamlet plan takes once instead of per burst: with
    k >= 3 queries, no miss set and no edge predicate, and a live
    graphlet that references at most its entry and ONE (s_p <= 2), every
    burst is shared by every query (Thm 4.1, Eq. 8's benefit >= b·n > 0).
    A refit of Eq. 8 that makes such a burst split fails here."""
    qids = tuple(f"q{i}" for i in range(k))
    stats = BurstStats(b=b, qids=qids, misses={}, edge_pred_qids=frozenset())
    plan = choose_plan(
        stats, n_so_far=n_so_far, g_active=g_active, s_p_live=s_p_live, p_avg=p_avg
    )
    assert plan.shared == frozenset(qids)
    assert plan == fixed_plan(
        mode="dynamic", all_qids=frozenset(qids), unary_on_kleene=False, edge_preds=False
    )


@pytest.mark.parametrize("mode", ["static", "nonshared"])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("divergent, edge_pred", [((), ()), (("q0",), ()), ((), ("q0",))])
def test_static_and_nonshared_decisions_are_fixed(mode, k, divergent, edge_pred):
    """Under 'static' and 'nonshared' no predicate changes the decision:
    the fixed plan shares every burst among all queries (static, two or
    more) or none (nonshared)."""
    got = _fixed(mode, k, unary_on_kleene=bool(divergent), edge_preds=bool(edge_pred))
    qids = frozenset(f"q{i}" for i in range(k))
    assert got == SharingPlan(shared=qids if mode == "static" and k > 1 else frozenset())


@pytest.mark.parametrize(
    "k, unary_on_kleene, edge_preds",
    [(2, False, False), (3, True, False), (3, False, True), (50, True, True)],
)
def test_dynamic_decision_varies_with_predicates_or_a_pair(k, unary_on_kleene, edge_preds):
    """A unary predicate on the Kleene type, an edge predicate or a pair of
    queries leaves the dynamic decision to each burst."""
    qids = frozenset(f"q{i}" for i in range(k))
    assert fixed_plan(
        mode="dynamic", all_qids=qids, unary_on_kleene=unary_on_kleene, edge_preds=edge_preds
    ) is None


def _divergence_over_bit_vectors(stats: BurstStats) -> dict:
    """Thm 4.1 as the paper states it: each query's match bit vector over
    the burst, the majority vector among the queries without edge
    predicates (the first in ``qids`` order on a tie), and each query's
    Hamming distance to it; ``b`` for an edge-predicate query."""
    vecs = {
        qid: tuple(j not in stats.misses.get(qid, ()) for j in range(stats.b)) for qid in stats.qids
    }
    plain = [vecs[qid] for qid in stats.qids if qid not in stats.edge_pred_qids]
    majority = max(plain, key=plain.count, default=None)
    return {
        qid: stats.b if qid in stats.edge_pred_qids else sum(x != y for x, y in zip(vec, majority))
        for qid, vec in vecs.items()
    }


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 12), b=st.integers(1, 12))
def test_divergence_is_hamming_distance_to_majority_vector(data, k, b):
    """``_divergent_events`` over miss sets equals the bit-vector statement
    of Thm 4.1, ties, queries without an entry in ``misses`` and
    edge-predicate queries included."""
    qids = tuple(f"q{i}" for i in range(k))
    some_misses = st.frozensets(st.integers(0, b - 1))
    # a few shared miss sets, so that majorities and ties occur
    pool = data.draw(st.lists(some_misses, min_size=1, max_size=3))
    misses = {}
    for qid in qids:
        m = data.draw(st.none() | st.sampled_from(pool) | some_misses)
        if m is not None:
            misses[qid] = m
    edge = data.draw(st.frozensets(st.sampled_from(qids)))
    stats = BurstStats(b=b, qids=qids, misses=misses, edge_pred_qids=edge)
    assert _divergent_events(stats) == _divergence_over_bit_vectors(stats)
