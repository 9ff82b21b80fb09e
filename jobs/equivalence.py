#!/usr/bin/env python
"""Behaviour dump and comparison for refactors that must change nothing.

    python3 jobs/equivalence.py --out FILE [--inputs NAME,...]
    python3 jobs/equivalence.py --compare A B [--rel-tol R]

``--out`` runs every system over every group of fixed seeded inputs and
writes, per (input, group, system) case, the per-window results (NaN
stored as null), the window starts, ``n_events`` and every ``Metrics``
field. ``--compare`` exits 1 and lists every field in which two dumps
differ (``metrics.coeff_ops``, ``results.SUM(T.v)``, ...), with the number
of cases it differs in and its first difference. Every field compares
exactly; ``--rel-tol R`` accepts a result aggregate other than COUNT(*)
within relative tolerance ``R``, while counts stay exact. To compare two
checkouts, write one dump from each with ``PYTHONPATH`` pointing at that
checkout's ``src``.

Inputs: the small configurations of T9, T11 (NYC and smart home) and T12
from ``repro.bench.experiments``, and perfbench's ``nyc-shared`` and
``stock-diverse`` inputs at seed 1 (parameters of ``perfbench/run.py``).
GRETA and the three Hamlet systems run on all of them; SHARON and MCEP
evaluate COUNT(*) workloads only, so they run on T9 and T11.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import sys

HAMLET_GRETA = ("greta", "hamlet", "hamlet-static", "hamlet-nonshared")
ALL_SYSTEMS = HAMLET_GRETA + ("sharon", "mcep")


def _inputs(pkg: str = "repro") -> dict:
    """name -> (stream frame factory, workload factory, systems), the
    factories from package ``pkg`` (another checkout's ``src/repro`` may
    be loaded under another name)."""
    workloads = importlib.import_module(f"{pkg}.core.workloads")
    streams = importlib.import_module(f"{pkg}.streams")
    workload1, workload2 = workloads.workload1, workloads.workload2
    nyc_taxi_stream, ridesharing_stream = streams.nyc_taxi_stream, streams.ridesharing_stream
    smart_home_stream, stock_stream = streams.smart_home_stream, streams.stock_stream

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


def leaf_differences(a, b, path: tuple = ()):
    """``(path, a value, b value)`` for each leaf where two dumps differ; a
    path holds dict keys and list indexes, and a value missing on one side
    is the string ``"<missing>"`` (a list that changed length is one leaf,
    its lengths)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in list(a) + [k for k in b if k not in a]:
            if k not in a or k not in b:
                yield path + (k,), a.get(k, "<missing>"), b.get(k, "<missing>")
            else:
                yield from leaf_differences(a[k], b[k], path + (k,))
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield path + ("<length>",), len(a), len(b)
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from leaf_differences(x, y, path + (i,))
    elif a != b or type(a) is not type(b):
        yield path, a, b


def _within(path: tuple, a, b, rel_tol: float) -> bool:
    """Whether a result aggregate other than COUNT(*) is within ``rel_tol``
    (relative); counts and every other field compare exactly."""
    if not rel_tol or len(path) < 2 or path[1] != "results" or path[-1] == "COUNT(*)":
        return False
    if not all(isinstance(v, (int, float)) for v in (a, b)):
        return False
    return abs(a - b) <= rel_tol * max(abs(a), abs(b))


def differences(a: dict, b: dict, rel_tol: float = 0.0) -> dict[str, list]:
    """``{field: [(path, a value, b value), ...]}``: every difference
    between two dumps, by field, in case order. A field is a path without
    its case and list indexes (``metrics.coeff_ops``, ``results.SUM(T.v)``).
    A result aggregate other than COUNT(*) within ``rel_tol`` is not a
    difference."""
    out: dict[str, list] = {}
    for path, x, y in leaf_differences(a, b):
        if not _within(path, x, y, rel_tol):
            field = ".".join(str(k) for k in path[1:] if not isinstance(k, int)) or "<case>"
            out.setdefault(field, []).append((path, x, y))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE", help="write this checkout's dump")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    p.add_argument(
        "--inputs", help="comma-separated input names to dump (default: all)"
    )
    p.add_argument(
        "--rel-tol", type=float, default=0.0, metavar="R",
        help="with --compare: accept result aggregates other than COUNT(*) "
        "within relative tolerance R (default: exact)",
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
    diffs = differences(a, b, args.rel_tol)
    if diffs:
        print(f"DIFFERENT: {len(diffs)} field(s)")
        for field, where in diffs.items():
            path, x, y = where[0]
            cases = len({p[0] for p, _, _ in where})
            print(f"  {field}: {cases} cases; first {'.'.join(map(str, path))}: {x!r} != {y!r}")
        return 1
    tol = f" (aggregates within {args.rel_tol:g})" if args.rel_tol else ""
    print(f"{len(a)} cases identical{tol}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
