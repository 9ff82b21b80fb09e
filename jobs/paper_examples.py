#!/usr/bin/env python
"""T-EX: print the paper's worked-example values (Tables 3-5, Eq. 9-11,
Fig. 7) as produced by this implementation, next to the published
numbers."""
from repro.core.events import Event
from repro.core.greta import CNT
from repro.core.hamlet import HamletPlan
from repro.core.optimizer import BurstStats, choose_plan, nonshared_cost_simple, shared_cost_simple
from repro.core.queries import Atom, EdgePred, Kleene, Query, seq


def _ev(t, et, v=0.0):
    return Event(t, et, {"v": v})


def record_snapshots(queries, evs) -> list:
    """Run a static engine over ``evs``; return the (q1, q2) counts of every
    snapshot it creates, in creation order. A graphlet's snapshots are
    dropped with it, so each graphlet's are read as it closes."""
    eng = HamletPlan(queries, mode="static").new_engine()
    vals = []
    close = eng._close_graphlet

    def record():
        if eng.graphlet is not None:
            for cols in eng.graphlet.snaps:
                by_q = eng.plan.by_query(cols)
                vals.append((by_q["q1"][CNT], by_q["q2"][CNT]))
        close()

    eng._close_graphlet = record
    for e in evs:
        eng.on_event(e)
    eng.end_window()
    return vals


def main() -> None:
    q1 = Query(qid="q1", elems=seq(Atom("A"), Kleene("B")))
    q2 = Query(qid="q2", elems=seq(Atom("C"), Kleene("B")))
    prefix = [_ev(0, "A"), _ev(1, "A"), _ev(2, "C")]
    tail = [_ev(7, "A"), _ev(8, "A"), _ev(9, "C"), _ev(10, "C"), _ev(11, "C")]
    rows = []

    # Table 3: q1's running count in the shared graphlet B3 after each of
    # b3..b6 (x, 2x, 4x, 8x with x = 2)
    eng = HamletPlan([q1, q2], mode="static").new_engine()
    for e in prefix:
        eng.on_event(e)
    sums = []
    for i in range(4):
        eng.on_event(_ev(3 + i, "B"))
        eng._flush_burst()  # white-box: each event through the graphlet
        sums.append(eng.graphlet.values(eng.plan.one)[CNT][eng.plan.pos["q1"]])
    rows.append(("Table 3", "B3 run sum, q1", "2/6/14/30", "/".join(map(str, sums))))

    # Table 4 (Fig. 5(a-b)): the graphlet entry snapshots x and y
    x, y = record_snapshots([q1, q2], prefix + [_ev(3 + i, "B") for i in range(4)] + tail + [_ev(12, "B")])[:2]
    rows.append(("Table 4", "x", "(2, 1)", f"({x[0]}, {x[1]})"))
    rows.append(("Table 4", "y", "(34, 19)", f"({y[0]}, {y[1]})"))

    # Table 5 (Fig. 5(c)): q2's edge predicate fails on (b4, b5) only, and
    # every event of its graphlet is an event snapshot: x, b3..b6, then y
    q2e = Query(qid="q2", elems=seq(Atom("C"), Kleene("B")), edge_pred=EdgePred("v", "<="))
    burst = [_ev(3, "B", 1), _ev(4, "B", 5), _ev(5, "B", 2), _ev(6, "B", 9)]
    _, _, _, z, _, y = record_snapshots([q1, q2e], prefix + burst + tail + [_ev(12, "B", 9)])[:6]
    rows.append(("Table 5", "z", "(8, 2)", f"({z[0]}, {z[1]})"))
    rows.append(("Table 5", "y", "(34, 15)", f"({y[0]}, {y[1]})"))

    for eq, name, paper, got in (
        ("Eq. 9", "Shared(B3)", 44, shared_cost_simple(b=4, n=7, g=4, s_c=1, s_p=1, k=2, t=2)),
        ("Eq. 9", "NonShared", 56, nonshared_cost_simple(b=4, n=7, k=2)),
        ("Eq. 10", "Shared(B3)", 120, shared_cost_simple(b=4, n=11, g=8, s_c=1, s_p=2, k=2, t=2)),
        ("Eq. 10", "NonShared", 88, nonshared_cost_simple(b=4, n=11, k=2)),
        ("Eq. 11", "Shared(B6)", 76, shared_cost_simple(b=4, n=15, g=4, s_c=1, s_p=1, k=2, t=2)),
        ("Eq. 11", "NonShared", 120, nonshared_cost_simple(b=4, n=15, k=2)),
    ):
        rows.append((eq, name, str(paper), f"{got:.0f}"))

    # Fig. 7: q2 and q4 introduce snapshots (m = 2), so m + 1 plans are
    # evaluated, not 2^k
    stats = BurstStats(
        b=4,
        qids=("q1", "q2", "q3", "q4"),
        # the match vectors 1011 and 0111: each misses one event
        misses={"q2": frozenset({1}), "q4": frozenset({0})},
        edge_pred_qids=frozenset(),
    )
    plan = choose_plan(stats, n_so_far=10, g_active=0, s_p_live=1, p_avg=2)
    rows.append(("Fig. 7", f"plans for m = {plan.m_snapshot_queries}", "m + 1 = 3", str(plan.plans_considered)))

    print("T-EX | quantity | paper | ours")
    for row in rows:
        print(" | ".join(row))


if __name__ == "__main__":
    main()
