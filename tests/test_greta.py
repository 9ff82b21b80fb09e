"""GRETA non-shared online aggregation vs the brute-force oracle
(paper §3.2, Eq. 1–4) across a broad randomized space."""
import pytest

from repro.core.greta import CNT, GretaState, run_greta
from repro.core.queries import AggSpec, Atom, Kleene, Pred, Query, seq

from util import PATTERNS, assert_matches_brute, random_events, random_query


@pytest.mark.parametrize("seed", range(60))
def test_greta_matches_brute_random(seed):
    events = random_events(seed)
    q = random_query(seed + 1000)
    assert_matches_brute(events, q, run_greta(events, q))


@pytest.mark.parametrize("pname", sorted(PATTERNS))
@pytest.mark.parametrize("seed", [0, 7, 21])
def test_greta_matches_brute_per_pattern(pname, seed):
    events = random_events(seed, n_max=14)
    q = Query(
        qid="q",
        elems=PATTERNS[pname],
        aggs=(AggSpec("COUNT_STAR"), AggSpec("SUM", "B", "v")),
        where={"B": (Pred("v", ">=", 3),)},
    )
    assert_matches_brute(events, q, run_greta(events, q))


def test_intermediate_counts_double():
    """Eq. 2: with one A then B's, count(b_i) doubles (paper Table 3 shape)."""
    from repro.core.events import Event

    st = GretaState(Query(qid="q", elems=seq(Atom("A"), Kleene("B"))))
    st.on_event(Event(0, "A", {}))
    counts = []
    for i in range(4):
        st.on_event(Event(i + 1.0, "B", {}))
        counts.append(st.recs["B"][-1].vals[CNT])
    assert counts == [1, 2, 4, 8]
    assert st.exact_count() == 15


def test_exact_count_is_exact_beyond_double_precision():
    from repro.core.events import Event

    st = GretaState(Query(qid="q", elems=seq(Atom("A"), Kleene("B"))))
    st.on_event(Event(0, "A", {}))
    for i in range(80):
        st.on_event(Event(i + 1.0, "B", {}))
    assert st.exact_count() == 2**80 - 1  # Σ 2^i, i<80


def test_ops_counter_is_quadratic():
    """The predecessor loop is the model's n² term (Eq. 4)."""
    from repro.core.events import Event

    def ops_for(n):
        st = GretaState(Query(qid="q", elems=seq(Kleene("B"))))
        for i in range(n):
            st.on_event(Event(float(i), "B", {}))
        return st.ops

    assert ops_for(40) == 40 * 39 // 2
    assert ops_for(80) == 80 * 79 // 2


def test_unmatched_types_ignored():
    from repro.core.events import Event

    st = GretaState(Query(qid="q", elems=seq(Atom("A"), Kleene("B"))))
    st.on_event(Event(0, "Z", {}))
    st.on_event(Event(1, "A", {}))
    st.on_event(Event(2, "Z", {}))
    st.on_event(Event(3, "B", {}))
    assert st.exact_count() == 1 and st.n_stored == 2
