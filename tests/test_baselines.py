"""SHARON and MCEP baselines: exactness, flattening rules, modelling
path, and the cost characteristics the §6 comparison rests on."""
import pytest

from repro.baselines.sharon import _flatten_steps
from repro.core.engine import run_system
from repro.core.events import Event
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

from util import random_events


def _q(qid, pat, **kw):
    return Query(qid=qid, elems=pat, window=20.0, slide=20.0, **kw)


@pytest.mark.parametrize("seed", range(12))
def test_sharon_equals_greta(seed):
    events = random_events(seed + 1100, n_max=20, types="ABCD")
    qs = [
        _q("a", seq(Atom("A"), Kleene("B"))),
        _q("b", seq(Atom("C"), Kleene("B"), Atom("D"))),
    ]
    ref = run_system(events, qs, "greta")
    got = run_system(events, qs, "sharon")
    for key in ref.results:
        assert got.results[key]["COUNT(*)"] == ref.results[key]["COUNT(*)"]


@pytest.mark.parametrize("seed", range(4))
def test_sharon_asks_only_predicate_queries(seed, monkeypatch):
    """Patterns shared by queries without predicates match every event, so
    SHARON asks ``Query.matches`` only for a query with a predicate; its
    counts still equal GRETA's."""
    events = random_events(seed + 1200, n_max=20, types="ABCD")
    qs = [
        _q("a", seq(Atom("A"), Kleene("B"))),
        _q("a2", seq(Atom("A"), Kleene("B"))),
        _q("p", seq(Atom("A"), Kleene("B")), where={"B": (Pred("v", ">=", 4),)}),
    ]
    ref = run_system(events, qs, "greta")
    asked = set()
    matches = Query.matches

    def counted(q, e):
        asked.add(q.qid)
        return matches(q, e)

    monkeypatch.setattr(Query, "matches", counted)
    got = run_system(events, qs, "sharon")
    assert asked <= {"p"} and (asked or not events)
    for key in ref.results:
        assert got.results[key]["COUNT(*)"] == ref.results[key]["COUNT(*)"]


def test_sharon_l_estimate_bounds_completeness():
    """Flattened workloads only cover matches up to l Kleene events —
    a too-small compile-time estimate loses long trends (why SHARON must
    over-provision l, which is what makes it slow)."""
    events = [Event(0, "A", {})] + [Event(i + 1.0, "B", {}) for i in range(5)]
    q = _q("a", seq(Atom("A"), Kleene("B")))
    full = run_system(events, [q], "sharon").results[("a", 0.0)]["COUNT(*)"]
    capped = run_system(events, [q], "sharon", sharon_l=2).results[("a", 0.0)]["COUNT(*)"]
    assert full == 2**5 - 1
    assert capped == 5 + 10  # C(5,1) + C(5,2)


def test_sharon_cost_quadratic_in_l():
    events = [Event(0, "A", {})] + [Event(i + 1.0, "B", {}) for i in range(10)]
    q = _q("a", seq(Atom("A"), Kleene("B")))
    ops_small = run_system(events, [q], "sharon", sharon_l=5).metrics.ops
    ops_big = run_system(events, [q], "sharon", sharon_l=50).metrics.ops
    assert ops_big > 5 * ops_small


def test_sharon_rejects_unsupported_queries():
    with pytest.raises(ValueError):
        run_system(
            [], [_q("a", seq(Atom("A"), Kleene("B")), edge_pred=EdgePred("v", "<="))], "sharon"
        )
    with pytest.raises(ValueError):
        run_system([], [_q("a", seq(Atom("A"), Atom("B")))], "sharon")  # no Kleene
    with pytest.raises(ValueError):
        run_system(
            [], [_q("a", seq(Atom("A"), Kleene("B")), aggs=(AggSpec("SUM", "B", "v"),))], "sharon"
        )


def test_flatten_steps_prefix_suffix():
    prefix, k, suffix = _flatten_steps(_q("a", seq(Atom("A"), Atom("C"), Kleene("B"), Atom("D"))))
    assert (prefix, k, suffix) == (["A", "C"], "B", ["D"])


@pytest.mark.parametrize("seed", range(12))
def test_mcep_equals_greta(seed):
    events = random_events(seed + 1200, n_max=16, types="ABCDN")
    qs = [
        _q("a", seq(Atom("A"), Kleene("B")), where={"B": (Pred("v", ">=", 3),)}),
        _q("b", seq(Atom("C"), Kleene("B"))),
        _q("c", seq(Atom("A"), Neg("N"), Kleene("B"))),
    ]
    ref = run_system(events, qs, "greta")
    got = run_system(events, qs, "mcep")
    for key in ref.results:
        assert got.results[key]["COUNT(*)"] == ref.results[key]["COUNT(*)"]


def test_mcep_trend_budget_triggers_modelling():
    events = [Event(0, "A", {})] + [Event(i + 1.0, "B", {}) for i in range(30)]
    q = Query(qid="a", elems=seq(Atom("A"), Kleene("B")), window=50.0, slide=50.0)
    rr = run_system(events, [q], "mcep", mcep_max_trends=50)
    assert rr.modelled is True
    # results still exact via the DP fallback
    assert rr.results[("a", 0.0)]["COUNT(*)"] == float(2**30 - 1)
    # modelled latency reflects the true trend count, not the cap
    assert rr.window_wall[0.0] > 0


def test_mcep_counts_trends_not_prefixes():
    events = [Event(0, "A", {}), Event(1, "B", {}), Event(2, "B", {})]
    q = _q("a", seq(Atom("A"), Kleene("B")))
    rr = run_system(events, [q], "mcep")
    assert rr.results[("a", 0.0)]["COUNT(*)"] == 3.0
    assert rr.metrics.ops == 3


def test_mcep_shares_construction_across_queries():
    """Two queries over the same Kleene events: the union DFS enumerates
    each trend once (enumerated == distinct trends, not per query)."""
    events = [Event(0, "A", {}), Event(0.5, "C", {}), Event(1, "B", {}), Event(2, "B", {})]
    qs = [_q("a", seq(Atom("A"), Kleene("B"))), _q("b", seq(Atom("C"), Kleene("B")))]
    rr = run_system(events, qs, "mcep")
    assert rr.results[("a", 0.0)]["COUNT(*)"] == 3.0
    assert rr.results[("b", 0.0)]["COUNT(*)"] == 3.0
    assert rr.metrics.ops == 6  # disjoint start events -> separate paths


def test_mcep_rejects_non_count_aggregates():
    with pytest.raises(ValueError):
        run_system(
            [], [_q("a", seq(Atom("A"), Kleene("B")), aggs=(AggSpec("SUM", "B", "v"),))], "mcep"
        )
