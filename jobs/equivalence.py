#!/usr/bin/env python
"""Behaviour dump and comparison for refactors that must change nothing.

    python3 jobs/equivalence.py --out FILE [--inputs NAME,...]
    python3 jobs/equivalence.py --compare A B

``--out`` runs every system over every group of fixed seeded inputs and
writes, per (input, group, system) case, the per-window results (NaN
stored as null), the window starts, ``n_events`` and every ``Metrics``
field. ``--compare`` exits 1 and names the first difference between two
dumps. To compare two checkouts, write one dump from each with
``PYTHONPATH`` pointing at that checkout's ``src``.

Inputs: the small configurations of T9, T11 (NYC and smart home) and T12
from ``repro.bench.experiments``, and perfbench's ``nyc-shared`` and
``stock-diverse`` inputs at seed 1 (parameters of ``perfbench/run.py``).
GRETA and the three Hamlet systems run on all of them; SHARON and MCEP
evaluate COUNT(*) workloads only, so they run on T9 and T11.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

HAMLET_GRETA = ("greta", "hamlet", "hamlet-static", "hamlet-nonshared")
ALL_SYSTEMS = HAMLET_GRETA + ("sharon", "mcep")


def _inputs() -> dict:
    """name -> (stream frame factory, workload factory, systems)."""
    from repro.core.workloads import workload1, workload2
    from repro.streams import (
        nyc_taxi_stream,
        ridesharing_stream,
        smart_home_stream,
        stock_stream,
    )

    rpdc = ("R", "P", "D", "C")
    return {
        "t9-small": (
            lambda: ridesharing_stream(
                events_per_min=150, seed=42, minutes=1.0, n_groups=8,
                burst_mean=2.0, p_kleene=0.2, burst_cap=5,
            ),
            lambda: workload1(5, kleene_type="T", window=60.0, slide=60.0),
            ALL_SYSTEMS,
        ),
        "t11-small-nyc": (
            lambda: nyc_taxi_stream(minutes=1.0, events_per_min=120),
            lambda: workload1(10, kleene_type="T", prefixes=rpdc, window=60.0, slide=60.0),
            ALL_SYSTEMS,
        ),
        "t11-small-sh": (
            lambda: smart_home_stream(minutes=1.0, events_per_min=120),
            lambda: workload1(
                10, kleene_type="M", prefixes=("S", "E", "F0", "F1"), window=60.0, slide=60.0
            ),
            ALL_SYSTEMS,
        ),
        "t12-small": (
            lambda: stock_stream(
                minutes=1.0, events_per_min=100, n_groups=4,
                burst_mean=30.0, p_kleene=0.55, seed=7,
            ),
            lambda: workload2(12, kleene_type="T", windows=(60.0, 120.0), seed=5),
            HAMLET_GRETA,
        ),
        "nyc-shared": (
            lambda: nyc_taxi_stream(minutes=40.0, events_per_min=200, n_groups=4, seed=1),
            lambda: workload1(50, kleene_type="T", prefixes=rpdc, window=240.0, slide=240.0),
            HAMLET_GRETA,
        ),
        "stock-diverse": (
            lambda: stock_stream(
                minutes=12.0, events_per_min=150, n_groups=4,
                burst_mean=30.0, p_kleene=0.55, seed=1,
            ),
            lambda: workload2(40, kleene_type="T", windows=(60.0, 120.0), seed=5),
            HAMLET_GRETA,
        ),
    }


def _plain(v: float):
    return None if isinstance(v, float) and math.isnan(v) else v


def dump(names=None) -> dict:
    """``{case: {...}}`` for every (input, group, system) of ``names``."""
    from repro.core.engine import run_system
    from repro.streams import group_events

    inputs = _inputs()
    cases: dict[str, dict] = {}
    for name in names or inputs:
        make_stream, make_workload, systems = inputs[name]
        workload = make_workload()
        for gkey, events in group_events(make_stream()).items():
            for system in systems:
                rr = run_system(events, workload, system)
                cases[f"{name}|{gkey}|{system}"] = {
                    "windows": sorted({start for _, start in rr.results}),
                    "n_events": rr.n_events,
                    "metrics": dataclasses.asdict(rr.metrics),
                    "results": [
                        [qid, start, {a: _plain(v) for a, v in sorted(aggs.items())}]
                        for (qid, start), aggs in sorted(rr.results.items())
                    ],
                }
    return cases


def first_difference(a, b, path: str = ""):
    """The path and values of the first difference between two dumps, or
    None when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            if k not in a or k not in b:
                return f"{path}{k}: only in {'A' if k in a else 'B'}"
            d = first_difference(a[k], b[k], f"{path}{k}.")
            if d:
                return d
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path.rstrip('.')}: {len(a)} entries != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = first_difference(x, y, f"{path}{i}.")
            if d:
                return d
        return None
    if a != b or type(a) is not type(b):
        return f"{path.rstrip('.')}: {a!r} != {b!r}"
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE", help="write this checkout's dump")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    p.add_argument(
        "--inputs", help="comma-separated input names to dump (default: all)"
    )
    args = p.parse_args(argv)
    if args.out:
        cases = dump(args.inputs.split(",") if args.inputs else None)
        with open(args.out, "w") as f:
            json.dump(cases, f, sort_keys=True)
        print(f"{len(cases)} cases written to {args.out}")
        return 0
    with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
        a, b = json.load(fa), json.load(fb)
    diff = first_difference(a, b)
    if diff:
        print(f"DIFFERENT: {diff}")
        return 1
    print(f"{len(a)} cases identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
