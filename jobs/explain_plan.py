#!/usr/bin/env python
"""A Hamlet plan explains itself: the static half of each sharable set.

    python3 jobs/explain_plan.py --workload {nyc-shared,stock-diverse}

Builds the ``hamlet`` (dynamic) executors of the workload of that name in
``jobs/equivalence.py`` and prints, for each sharable set:

- its queries, shared Kleene type ``E``, pane and ``k``;
- its sharing decision: the plan's fixed one (``HamletPlan.fixed``: who
  shares) or "per burst" (``optimizer.choose_plan`` decides each burst),
  next to what ``optimizer.fixed_plan`` read to take it: a unary
  predicate on ``E``, an edge predicate, and ``k``;
- the edge-predicate positions and each position's result source (its
  end type's totals, or the pending column under a trailing negation);
- per event type, the merged template's transitions (Fig. 3(b)), each
  with the positions that share it, and the positions whose same-type
  predecessors are their stored records (an edge predicate on ``E``).

It reads plan attributes only and runs no events.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from equivalence import _inputs  # noqa: E402

WORKLOADS = ("nyc-shared", "stock-diverse")


def _ranges(positions) -> str:
    """Sorted positions as runs: ``0-3, 7, 9-10``."""
    runs: list[list[int]] = []
    for i in sorted(positions):
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs) or "none"


def _decision(plan) -> str:
    if plan.fixed is None:
        return "per burst (choose_plan: Thm 4.1/4.2, Eq. 8)"
    shared = plan.fixed.shared
    if not shared:
        return "fixed: no query shares"
    if len(shared) == plan.k:
        return f"fixed: all {plan.k} share"
    return "fixed: " + " ".join(sorted(shared)) + " share"


def explain(plan) -> list[str]:
    """The lines that describe one sharable set's plan."""
    e_ker = plan.kernels.get(plan.E)
    lines = [
        f"E = {plan.E}, pane = {plan.pane:g} s, k = {plan.k}",
        "  queries: " + " ".join(q.qid for q in plan.qs),
        f"  decision: {_decision(plan)}",
        "  fixed_plan inputs: unary predicate on E: "
        + ("yes" if e_ker is not None and e_ker.checks else "no")
        + f"; edge predicates: {'yes' if plan.edge_pred_qids else 'no'}; k = {plan.k}",
        "  edge-predicate positions: " + _ranges(plan.pos[qid] for qid in plan.edge_pred_qids),
    ]
    sources: dict = {}
    for _, i, src, *_ in plan.readers:
        sources.setdefault(src, []).append(i)
    lines.append(
        "  result sources: "
        + "; ".join(
            f"{'pending' if src is None else src + ' totals'} at {_ranges(at)}"
            for src, at in sources.items()
        )
    )
    lines.append("  kernel transitions (Fig. 3(b)), per event type:")
    for t in plan.types:
        for ptype, blocker, at in plan.kernels[t].edges:
            unless = "" if blocker is None else f" unless {blocker} between"
            lines.append(f"    {ptype} -> {t}{unless}: positions {_ranges(at)}")
        recs = [i for i, *_ in plan.kernels[t].recs]
        if recs:
            lines.append(f"    {t} -> {t} through stored records (edge predicate): positions {_ranges(recs)}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    args = p.parse_args(argv)
    from repro.core.engine import window_executors

    workload = _inputs()[args.workload][1]()
    entries = window_executors(workload, "hamlet")
    print(f"{args.workload}: {len(workload)} queries in {len(entries)} sharable sets")
    for n, (window, slide, plan) in enumerate(entries, 1):
        head, *rest = explain(plan)
        print(f"set {n}: window {window:g} s, slide {slide:g} s, {head}")
        print("\n".join(rest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
