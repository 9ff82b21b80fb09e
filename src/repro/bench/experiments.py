"""Per-figure experiment definitions (paper §6.2).

Each function regenerates the data series behind one (or two) of the
paper's evaluation figures as printed table rows; ``scale`` selects
``"full"`` (EXPERIMENTS.md numbers, minutes of runtime) or ``"small"``
(benchmark/CI smoke, seconds). Rates are the paper's divided by the
documented scaling factor (DESIGN.md substitutions) so that every
system stays in its asymptotic regime on the Python substrate.
"""
from __future__ import annotations

from ..core.engine import RunResult
from ..core.workloads import workload1, workload2
from ..streams import (
    nyc_taxi_stream,
    ridesharing_stream,
    smart_home_stream,
    stock_stream,
)
from .harness import row, run_partitioned

FOUR_SYSTEMS = ("hamlet", "greta", "mcep", "sharon")


def _rideshare_cfg(scale: str) -> dict:
    # calibrated so that per-group trend counts stay enumerable for MCEP
    # while GRETA's quadratic loop is clearly engaged (DESIGN.md)
    if scale == "small":
        return dict(minutes=1.0, n_groups=8, burst_mean=2.0, p_kleene=0.2, burst_cap=5)
    return dict(minutes=2.0, n_groups=16, burst_mean=3.0, p_kleene=0.15, burst_cap=8)


def _fastest_of_three(inputs: dict, systems) -> dict[tuple, RunResult]:
    """``{(config, system): RunResult}``: each (config, system)'s fastest
    pass (smallest ``total_wall``) over three sweeps of every input.
    ``inputs`` maps each distinct configuration to its ``(frame, workload,
    run_partitioned keywords)``, so a configuration that is a point of both
    panels of a figure is measured once and reported by both. A pass over
    one point takes tens of milliseconds, shorter than the host's slow
    stretches (seconds), so each point keeps its fastest pass rather than
    its first; the passes' counters must be equal."""
    best: dict[tuple, RunResult] = {}
    for _ in range(3):
        for key, (pdf, wl, kw) in inputs.items():
            for system in systems:
                rr = run_partitioned(pdf, wl, system, **kw)
                fastest = best.setdefault((key, system), rr)
                assert rr.metrics == fastest.metrics, (key, system)
                if rr.total_wall < fastest.total_wall:
                    best[key, system] = rr
    return best


def fig9_fig10(scale: str = "full") -> list[dict]:
    """T9 (Fig. 9 latency/throughput) + T10 (Fig. 10 memory): the four
    systems on the ridesharing stream, varying rate and #queries.

    Paper x-axes: 10K–20K events/min and 5–25 queries; rates here are
    ÷50. SHARON's flattening length is its compile-time estimate: the
    per-window global Kleene event count (see baselines.sharon). Each
    (point, system) reports its fastest of three sweeps
    (``_fastest_of_three``).
    """
    cfg = _rideshare_cfg(scale)
    epm_list = [200, 250, 300, 350, 400] if scale == "full" else [150]
    k_list = [5, 10, 15, 20, 25] if scale == "full" else [5]
    window = 60.0
    n_windows = max(int(cfg["minutes"] * 60 / window), 1)
    # (panel, x_name, x, events per minute, queries)
    k_rate = 10 if scale == "full" else 5
    points = [("a/c (vs rate)", "events_per_min", epm, epm, k_rate) for epm in epm_list]
    points += [("b/d (vs queries)", "n_queries", k, epm_list[0], k) for k in k_list]
    inputs = {}
    for *_, epm, k in points:
        if (epm, k) in inputs:
            continue
        pdf = ridesharing_stream(events_per_min=epm, seed=42, **cfg)
        kleene_per_window = int((pdf["etype"] == "T").sum() / n_windows) + 1
        inputs[epm, k] = (
            pdf,
            workload1(k, kleene_type="T", window=window, slide=window),
            dict(sharon_l=kleene_per_window, mcep_max_trends=1_000_000),
        )
    best = _fastest_of_three(inputs, FOUR_SYSTEMS)
    return [
        row(table="T9/T10", panel=panel, x_name=x_name, x=x, system=system, rr=best[(epm, k), system])
        for panel, x_name, x, epm, k in points
        for system in FOUR_SYSTEMS
    ]


def fig11(scale: str = "full") -> list[dict]:
    """T11 (Fig. 11): Hamlet vs GRETA on the NYC-taxi-like and
    smart-home-like streams, varying rate and #queries (25–100). Each
    (point, system) reports its fastest of three sweeps
    (``_fastest_of_three``)."""
    window = 240.0 if scale == "full" else 60.0
    epm_list = [100, 150, 200, 250] if scale == "full" else [120]
    k_list = [25, 50, 75, 100] if scale == "full" else [10]
    minutes = 8.0 if scale == "full" else 1.0
    k_rate, epm_k = (50 if scale == "full" else 10), epm_list[min(1, len(epm_list) - 1)]
    datasets = (
        ("NYC", nyc_taxi_stream, "T", ("R", "P", "D", "C")),
        ("SH", smart_home_stream, "M", ("S", "E", "F0", "F1")),
    )
    # (panel, x_name, x, dataset, events per minute, queries)
    points = []
    for ds in datasets:
        points += [(f"{ds[0]} vs rate", "events_per_min", epm, ds, epm, k_rate) for epm in epm_list]
        points += [(f"{ds[0]} vs queries", "n_queries", k, ds, epm_k, k) for k in k_list]
    streams = {}
    inputs = {}
    for *_, (ds_name, gen, kleene, prefixes), epm, k in points:
        if (ds_name, epm, k) in inputs:
            continue
        if (ds_name, epm) not in streams:
            streams[ds_name, epm] = gen(minutes=minutes, events_per_min=epm)
        wl = workload1(k, kleene_type=kleene, prefixes=prefixes, window=window, slide=window)
        inputs[ds_name, epm, k] = (streams[ds_name, epm], wl, {})
    best = _fastest_of_three(inputs, ("hamlet", "greta"))
    return [
        row(table="T11", panel=panel, x_name=x_name, x=x, system=system, rr=best[(ds[0], epm, k), system])
        for panel, x_name, x, ds, epm, k in points
        for system in ("hamlet", "greta")
    ]


def fig12_fig13(scale: str = "full") -> list[dict]:
    """T12 (Fig. 12 latency/throughput) + T13 (Fig. 13 memory +
    snapshots): Hamlet dynamic vs static sharing on the stock stream
    with the diverse workload 2 (paper x-axes 2K–4K events/min ÷ ~20
    and 20–100 queries), next to Hamlet's never-shared executor.

    Each (point, system) reports its fastest of three sweeps
    (``_fastest_of_three``)."""
    window = 60.0
    epm_list = [100, 125, 150, 175, 200] if scale == "full" else [100]
    k_list = [20, 40, 60, 80, 100] if scale == "full" else [12]
    minutes = 4.0 if scale == "full" else 1.0
    systems = (
        ("hamlet", "dynamic"), ("hamlet-static", "static"), ("hamlet-nonshared", "nonshared")
    )
    # (panel, x_name, x, events per minute, queries)
    k_rate, epm_k = (40 if scale == "full" else 12), epm_list[len(epm_list) // 2]
    points = [("a/c (vs rate)", "events_per_min", epm, epm, k_rate) for epm in epm_list]
    points += [("b/d (vs queries)", "n_queries", k, epm_k, k) for k in k_list]
    inputs = {}
    for *_, epm, k in points:
        if (epm, k) in inputs:
            continue
        inputs[epm, k] = (
            stock_stream(minutes=minutes, events_per_min=epm, n_groups=4,
                         burst_mean=30.0, p_kleene=0.55, seed=7),
            workload2(k, kleene_type="T", windows=(window, 2 * window), seed=5),
            {},
        )
    best = _fastest_of_three(inputs, [system for system, _ in systems])
    return [
        row(table="T12/T13", panel=panel, x_name=x_name, x=x, system=label, rr=best[(epm, k), system])
        for panel, x_name, x, epm, k in points
        for system, label in systems
    ]
