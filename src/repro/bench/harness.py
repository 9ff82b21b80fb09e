"""Shared experiment harness: run systems over a partitioned stream and
collect the per-figure table rows (latency / throughput / memory /
optimizer statistics) exactly as §6.1 defines the metrics."""
from __future__ import annotations

from typing import Sequence

import pandas as pd

from ..core.engine import RunResult, run_system
from ..core.queries import Query
from ..streams import group_events


def run_partitioned(
    pdf: pd.DataFrame,
    workload: Sequence[Query],
    system: str,
    **kw,
) -> RunResult:
    """Run one system over every group partition and merge the results —
    the in-process equivalent of the Spark grouped-map runtime."""
    merged = RunResult(system=system)
    for gkey, events in group_events(pdf).items():
        rr = run_system(events, workload, system, **kw)
        rr.results = {(gkey, w, q): a for (q, w), a in rr.results.items()}
        merged.merge(rr)
    return merged


def row(
    *,
    table: str,
    panel: str,
    x_name: str,
    x,
    system: str,
    rr: RunResult,
) -> dict:
    m = rr.metrics
    return {
        "table": table,
        "panel": panel,
        "x_name": x_name,
        "x": x,
        "system": system,
        "latency_ms": rr.latency * 1e3,
        "throughput_eps": rr.throughput,
        "mem_kb": m.peak_mem_bytes / 1024.0,
        "snapshots": m.snapshots_created,
        "shared_burst_pct": (100.0 * m.shared_bursts / m.bursts) if m.bursts else 0.0,
        "modelled": rr.modelled,
    }


def to_markdown(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """Minimal GitHub-markdown table (no tabulate dependency)."""
    out = ["| " + " | ".join(columns) + " |", "|" + "---|" * len(columns)]
    for r in rows:
        cells = []
        for c in columns:
            v = r.get(c, "")
            if isinstance(v, float):
                v = f"{v:,.3f}" if abs(v) < 1000 else f"{v:,.1f}"
            cells.append(str(v))
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)
