"""Bursty event stream generators for the four §6 data sets.

Real traces (NYC taxi [8], DEBS smart home [2], EODData stock [5]) are
not available offline; these seeded generators reproduce the properties
the paper's cost model and optimizer react to — arrival rate, per-type
*bursts* (maximal same-type runs inside a group), group cardinality, and
attribute distributions (see DESIGN.md substitutions).

All generators return a pandas DataFrame with the unified schema
``time`` (seconds, float), ``etype`` (str), ``gkey`` (int64 — the
group-by / partition key), ``v`` and ``w`` (float attributes: speed &
duration for ridesharing/taxi, price & volume for stock, load & aux for
smart home). Event times are strictly increasing within a group.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .core.events import Event, events_from_pandas

ATTR_COLS = ("v", "w")


def _gen_group(
    rng: np.random.Generator,
    gkey: int,
    n: int,
    duration_s: float,
    kleene_type: str,
    other_types: list[str],
    p_kleene: float,
    burst_mean: float,
    v_low: float,
    v_high: float,
    jitter: float,
    burst_cap: int | None = None,
) -> pd.DataFrame:
    """One group's events: same-type runs (bursts) with geometric lengths
    (optionally capped — keeps trend counts enumerable for the two-step
    baseline at the paper's 'low setting')."""
    etypes: list[str] = []
    while len(etypes) < n:
        if rng.random() < p_kleene:
            run = 1 + rng.geometric(1.0 / max(burst_mean, 1.0))
            if burst_cap is not None:
                run = min(run, burst_cap)
            etypes.extend([kleene_type] * int(run))
            # a non-Kleene event separates consecutive bursts, so a run's
            # length (and hence the trend blow-up) is bounded by burst_cap
            etypes.append(other_types[int(rng.integers(len(other_types)))])
        else:
            etypes.append(other_types[int(rng.integers(len(other_types)))])
    etypes = etypes[:n]
    # strictly increasing times spread over the duration with jitter so
    # groups interleave in the merged stream (long global runs for bursty
    # Kleene types — what SHARON's length estimate must cover)
    base = np.sort(rng.random(n)) * duration_s
    times = base + rng.random(n) * jitter
    times = np.maximum.accumulate(times) + np.arange(n) * 1e-6
    return pd.DataFrame(
        {
            "time": times,
            "etype": etypes,
            "gkey": np.full(n, gkey, dtype=np.int64),
            "v": rng.uniform(v_low, v_high, n).round(3),
            "w": rng.uniform(0.0, 100.0, n).round(3),
        }
    )


def bursty_stream(
    *,
    minutes: float,
    events_per_min: int,
    n_groups: int,
    kleene_type: str,
    other_types: list[str],
    p_kleene: float = 0.35,
    burst_mean: float = 6.0,
    v_low: float = 0.0,
    v_high: float = 30.0,
    seed: int = 0,
    burst_cap: int | None = None,
) -> pd.DataFrame:
    """Generic bursty multi-group stream; building block of all data sets."""
    rng = np.random.default_rng(seed)
    duration = minutes * 60.0
    n_total = int(events_per_min * minutes)
    per_group = np.maximum(rng.multinomial(n_total, [1.0 / n_groups] * n_groups), 1)
    frames = [
        _gen_group(
            rng, g, int(per_group[g]), duration, kleene_type, other_types,
            p_kleene, burst_mean, v_low, v_high, jitter=duration / 50.0,
            burst_cap=burst_cap,
        )
        for g in range(n_groups)
    ]
    pdf = pd.concat(frames, ignore_index=True).sort_values("time", kind="mergesort")
    return pdf.reset_index(drop=True)


# -- the four §6.1 data sets ------------------------------------------------


def ridesharing_stream(*, minutes=2.0, events_per_min=300, n_groups=40, burst_mean=3.0,
                       p_kleene=0.3, seed=0, burst_cap=None) -> pd.DataFrame:
    """Paper's own synthetic generator: 20 event types, districts as groups,
    Travel ('T') is the shared Kleene type; v=speed, w=duration."""
    others = ["R", "P", "D", "C"] + [f"F{i}" for i in range(15)]
    return bursty_stream(
        minutes=minutes, events_per_min=events_per_min, n_groups=n_groups,
        kleene_type="T", other_types=others, p_kleene=p_kleene,
        burst_mean=burst_mean, v_low=0.0, v_high=30.0, seed=seed,
        burst_cap=burst_cap,
    )


def nyc_taxi_stream(*, minutes=8.0, events_per_min=200, n_groups=4, burst_mean=8.0,
                    p_kleene=0.45, seed=1) -> pd.DataFrame:
    """NYC-taxi-like stream (base rate 200 events/min as in [8])."""
    others = ["R", "P", "D", "C", "F0", "F1"]
    return bursty_stream(
        minutes=minutes, events_per_min=events_per_min, n_groups=n_groups,
        kleene_type="T", other_types=others, p_kleene=p_kleene,
        burst_mean=burst_mean, v_low=0.0, v_high=30.0, seed=seed,
    )


def smart_home_stream(*, minutes=8.0, events_per_min=400, n_groups=4, burst_mean=10.0,
                      p_kleene=0.5, seed=2) -> pd.DataFrame:
    """Smart-home-like stream (houses as groups, 'M' load measurements are
    the Kleene type; paper base rate 20K events/min, scaled ÷50)."""
    others = ["S", "E", "F0", "F1"]
    return bursty_stream(
        minutes=minutes, events_per_min=events_per_min, n_groups=n_groups,
        kleene_type="M", other_types=others, p_kleene=p_kleene,
        burst_mean=burst_mean, v_low=0.0, v_high=2000.0, seed=seed,
    )


def stock_stream(*, minutes=2.0, events_per_min=200, n_groups=4, burst_mean=40.0,
                 p_kleene=0.6, seed=3) -> pd.DataFrame:
    """Stock-like stream (companies as groups, trade ticks 'T' are the
    Kleene type; the paper reports ~120-event bursts on this data set —
    ``burst_mean`` scales with the ÷-scaled rates)."""
    others = ["O", "H", "L", "X"]
    return bursty_stream(
        minutes=minutes, events_per_min=events_per_min, n_groups=n_groups,
        kleene_type="T", other_types=others, p_kleene=p_kleene,
        burst_mean=burst_mean, v_low=10.0, v_high=500.0, seed=seed,
    )


# -- helpers ----------------------------------------------------------------


def group_events(pdf: pd.DataFrame) -> dict[int, list[Event]]:
    """Partition a stream frame into per-group time-ordered Event lists —
    what the Spark runtime does with repartition+groupBy. The frame is
    sorted once by ``(gkey, time)`` (stably: equal times keep their input
    order) and each group's slice converted in key order."""
    keys = pdf["gkey"].to_numpy()
    order = np.lexsort((pdf["time"].to_numpy(), keys))
    pdf, keys = pdf.take(order), keys[order]
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    return {
        int(keys[a]): events_from_pandas(pdf.iloc[a:b], ATTR_COLS)
        for a, b in zip(bounds, bounds[1:])
        if a < b
    }


def to_spark(spark, pdf: pd.DataFrame):
    """Spark DataFrame with the unified stream schema."""
    return spark.createDataFrame(pdf)
