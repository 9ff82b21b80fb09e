#!/usr/bin/env python
"""T-EX: print the paper's worked-example values (Tables 3-5, Eq. 9-11)
as produced by this implementation, next to the published numbers."""
from repro.core.events import Event
from repro.core.hamlet import HamletPlan
from repro.core.optimizer import CostModel
from repro.core.queries import Atom, EdgePred, Kleene, Query, seq


def _ev(t, et, v=0.0):
    return Event(t, et, {"v": v})


def main() -> None:
    q1 = Query(qid="q1", elems=seq(Atom("A"), Kleene("B")))
    q2 = Query(qid="q2", elems=seq(Atom("C"), Kleene("B")))
    evs = [_ev(0, "A"), _ev(1, "A"), _ev(2, "C")]
    evs += [_ev(3 + i, "B") for i in range(4)]
    evs += [_ev(7, "A"), _ev(8, "A"), _ev(9, "C"), _ev(10, "C"), _ev(11, "C"), _ev(12, "B")]
    eng = HamletPlan([q1, q2], "B", mode="static", pane=100.0).new_engine()
    # record each snapshot's values as the engine creates it (a closed
    # graphlet's snapshots are dropped)
    vals = {}
    create = eng.S.create

    def record(cols):
        sid = create(cols)
        vals[sid] = eng.plan.by_query(cols)
        return sid

    eng.S.create = record
    for e in evs:
        eng.on_event(e)
    eng.end_window()
    x, y = sorted(vals)[:2]
    print("Table 4 | snapshot | paper (q1, q2) | ours (q1, q2)")
    print(f"        | x        | (2, 1)         | ({vals[x]['q1'][0]}, {vals[x]['q2'][0]})")
    print(f"        | y        | (34, 19)       | ({vals[y]['q1'][0]}, {vals[y]['q2'][0]})")

    cost = CostModel()
    print("\nEq. 9-11 | quantity | paper | ours")
    print(f"Eq. 9    | Shared(B3)    | 44  | {cost.shared_cost_simple(b=4, n=7, g=4, s_c=1, s_p=1, k=2, t=2):.0f}")
    print(f"Eq. 9    | NonShared     | 56  | {cost.nonshared_cost_simple(b=4, n=7, k=2):.0f}")
    print(f"Eq. 10   | Shared(B3)    | 120 | {cost.shared_cost_simple(b=4, n=11, g=8, s_c=1, s_p=2, k=2, t=2):.0f}")
    print(f"Eq. 10   | NonShared     | 88  | {cost.nonshared_cost_simple(b=4, n=11, k=2):.0f}")
    print(f"Eq. 11   | Shared(B6)    | 76  | {cost.shared_cost_simple(b=4, n=15, g=4, s_c=1, s_p=1, k=2, t=2):.0f}")
    print(f"Eq. 11   | NonShared     | 120 | {cost.nonshared_cost_simple(b=4, n=15, k=2):.0f}")


if __name__ == "__main__":
    main()
