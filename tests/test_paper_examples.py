"""Exact reproduction of the paper's worked examples: snapshot
propagation values (Tables 3, 4, 5), the benefit calculations of
Eq. 9–11 (§4.2), and the search-space pruning of §4.3 (Fig. 7)."""
import importlib.util
from pathlib import Path

import pytest

from repro.core.brute import brute_results
from repro.core.events import Event
from repro.core.greta import CNT
from repro.core.hamlet import HamletPlan, run_hamlet_set
from repro.core.optimizer import BurstStats, choose_plan, nonshared_cost_simple, shared_cost_simple
from repro.core.queries import Atom, EdgePred, Kleene, Query, seq

# The running example: q1 = SEQ(A, B+), q2 = SEQ(C, B+) (Fig. 3/4/5).
Q1 = Query(qid="q1", elems=seq(Atom("A"), Kleene("B")))
Q2 = Query(qid="q2", elems=seq(Atom("C"), Kleene("B")))


def _job():
    """jobs/paper_examples.py as a module: its recorder reads every
    snapshot an engine creates."""
    path = Path(__file__).resolve().parents[1] / "jobs" / "paper_examples.py"
    spec = importlib.util.spec_from_file_location("paper_examples", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


def _ev(t, et, v=0.0):
    return Event(t, et, {"v": v})


def _stream_fig5ab():
    """Graphlets A1(a×2), C2(c×1), B3(b×4), A4(a×2), C5(c×3), B6(b×1...)."""
    evs = [_ev(0, "A"), _ev(1, "A"), _ev(2, "C")]
    evs += [_ev(3 + i, "B") for i in range(4)]  # B3 graphlet: b3..b6
    evs += [_ev(7, "A"), _ev(8, "A")]
    evs += [_ev(9, "C"), _ev(10, "C"), _ev(11, "C")]
    evs += [_ev(12, "B")]  # first event of graphlet B6
    return evs


def test_table3_shared_propagation_doubles():
    """Table 3: counts within B3 are x, 2x, 4x, 8x — via the shared vector
    the engine's intermediate sums resolve to value(x,q)·{1,2,4,8}."""
    eng = HamletPlan([Q1, Q2], mode="static").new_engine()
    for e in [_ev(0, "A"), _ev(1, "A"), _ev(2, "C")]:
        eng.on_event(e)
    counts_q1, counts_q2 = [], []
    for i in range(4):
        eng.on_event(_ev(3 + i, "B"))
        eng._flush_burst()  # white-box: force the buffered burst through
        counts = eng.graphlet.values(eng.plan.one)[CNT]
        counts_q1.append(counts[eng.plan.pos["q1"]])
        counts_q2.append(counts[eng.plan.pos["q2"]])
    # running sums after each event: x,3x,7x,15x with x=2 (q1) / x=1 (q2)
    assert counts_q1 == [2, 6, 14, 30]
    assert counts_q2 == [1, 3, 7, 15]


def test_table4_snapshot_values():
    """Table 4: value(x,q1)=2, value(x,q2)=1; value(y,q1)=34, value(y,q2)=19."""
    # (q1, q2) counts in creation order: x=first entry, y=second entry
    x, y = _job().record_snapshots([Q1, Q2], _stream_fig5ab())[:2]
    assert x[0] == 2 and x[1] == 1
    assert y[0] == 34 and y[1] == 19


def test_table5_event_snapshot_z():
    """Table 5 (Fig. 5(c)): edge (b4,b5) fails for q2 only → event snapshot
    z with value(z,q1)=8, value(z,q2)=2, and sum(B3,q2)=11 → y(q2)=15."""
    q2 = Query(qid="q2", elems=seq(Atom("C"), Kleene("B")), edge_pred=EdgePred("v", "<="))
    # v-values crafted so prev<=cur fails exactly on (b4,b5) for q2
    evs = [_ev(0, "A"), _ev(1, "A"), _ev(2, "C")]
    evs += [_ev(3, "B", 1), _ev(4, "B", 5), _ev(5, "B", 2), _ev(6, "B", 9)]
    evs += [_ev(7, "A"), _ev(8, "A"), _ev(9, "C"), _ev(10, "C"), _ev(11, "C")]
    evs += [_ev(12, "B", 9)]
    # find the event snapshot created at b5: value 8 for q1, 2 for q2
    snap_vals = _job().record_snapshots([Q1, q2], evs)
    assert (8, 2) in snap_vals
    # y (entry of B6) = x + sum(B3) + sum(prefix graphlets): q1=34, q2=15
    assert (34, 15) in snap_vals
    # and results agree with brute force
    res = run_hamlet_set(evs, [Q1, q2], mode="static")
    for q in (Q1, q2):
        want = brute_results(evs, q)["COUNT(*)"]
        assert res[q.qid]["COUNT(*)"] == want


def test_paper_examples_job_prints_table4(capsys):
    """jobs/paper_examples.py prints the values of Tables 3-5 and Fig. 7 in
    its "ours" column, equal to the paper's."""
    _job().main()
    rows = [[c.strip() for c in line.split("|")] for line in capsys.readouterr().out.splitlines()]
    ours = {(c[0], c[1]): c[3] for c in rows[1:]}
    assert ours["Table 3", "B3 run sum, q1"] == "2/6/14/30"
    assert ours["Table 4", "x"] == "(2, 1)" and ours["Table 4", "y"] == "(34, 19)"
    assert ours["Table 5", "z"] == "(8, 2)" and ours["Table 5", "y"] == "(34, 15)"
    assert ours["Fig. 7", "plans for m = 2"] == "3"
    assert all(c[2] == c[3] for c in rows[1:] if c[0] != "Fig. 7")


def test_eq9_benefit_of_sharing():
    shared = shared_cost_simple(b=4, n=7, g=4, s_c=1, s_p=1, k=2, t=2)
    nonshared = nonshared_cost_simple(b=4, n=7, k=2)
    assert shared == 44 and nonshared == 56
    assert nonshared - shared == 12


def test_eq10_decision_to_split():
    shared = shared_cost_simple(b=4, n=11, g=8, s_c=1, s_p=2, k=2, t=2)
    nonshared = nonshared_cost_simple(b=4, n=11, k=2)
    assert shared == 120 and nonshared == 88
    assert nonshared - shared == -32


def test_eq11_decision_to_merge():
    shared = shared_cost_simple(b=4, n=15, g=4, s_c=1, s_p=1, k=2, t=2)
    nonshared = nonshared_cost_simple(b=4, n=15, k=2)
    assert shared == 76 and nonshared == 120
    assert nonshared - shared == 44


def test_fig7_pruning_plans_considered():
    """§4.3: with m snapshot-introducing queries only m+1 plans are
    evaluated (Levels 1–2 of the Fig. 7 lattice), not 2^k."""
    stats = BurstStats(
        b=4,
        qids=("q1", "q2", "q3", "q4"),
        # Fig. 7's match vectors 1111, 1011, 1111 and 0111 as miss sets
        misses={"q1": frozenset(), "q2": frozenset({1}), "q3": frozenset(), "q4": frozenset({0})},
        edge_pred_qids=frozenset(),
    )
    plan = choose_plan(stats, n_so_far=10, g_active=0, s_p_live=1, p_avg=2)
    assert plan.m_snapshot_queries == 2
    assert plan.plans_considered == 3  # m + 1
    # Thm 4.1: the no-snapshot queries q1, q3 always share
    assert {"q1", "q3"} <= set(plan.shared)
