"""Experiment workload generators (paper §6.1 workload descriptions)."""
from repro.core.hamlet import HamletPlan
from repro.core.queries import AggSpec
from repro.core.template import sharable_sets
from repro.core.workloads import workload1, workload2


def test_workload1_is_one_sharable_set():
    wl = workload1(10)
    sets = sharable_sets(wl)
    assert len(sets) == 1 and len(sets[0]) == 10
    assert HamletPlan(sets[0]).E == "T"


def test_workload1_patterns_differ_by_prefix():
    wl = workload1(4)
    prefixes = {q.elems[0].etype for q in wl}
    assert len(prefixes) == 4


def test_workload1_count_star_only():
    for q in workload1(6):
        assert all(a.fn == "COUNT_STAR" for a in q.aggs)


def test_workload2_splits_into_multiple_sets():
    wl = workload2(24)
    sets = sharable_sets(wl)
    assert sum(len(s) > 1 for s in sets) >= 3  # windows × aggregate classes
    assert sum(len(s) for s in sets) == 24


def test_workload2_mixed_aggregates():
    wl = workload2(8)
    fns = {a.fn for q in wl for a in q.aggs}
    assert {"COUNT_STAR", "SUM", "AVG", "MAX"} <= fns


def test_workload2_has_divergence_sources():
    wl = workload2(30, seed=1)
    assert any(q.edge_pred is not None for q in wl)
    assert any(q.where for q in wl)


def test_workload2_never_combines_minmax_with_edge_pred():
    for seed in range(5):
        for q in workload2(40, seed=seed):
            if any(a.fn in ("MIN", "MAX") for a in q.aggs):
                assert q.edge_pred is None


def test_workload2_deterministic_in_seed():
    a = workload2(12, seed=3)
    b = workload2(12, seed=3)
    assert [(q.qid, q.elems, q.edge_pred, tuple(q.aggs)) for q in a] == [
        (q.qid, q.elems, q.edge_pred, tuple(q.aggs)) for q in b
    ]


def test_workload2_prefix_lengths_cycle_1_to_3():
    wl = workload2(9)
    lens = [len(q.elems) - 1 for q in wl]  # atoms before the Kleene
    assert set(lens) == {1, 2, 3}
