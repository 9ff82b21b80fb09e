#!/usr/bin/env python
"""In-process engine benchmark: Hamlet's wall time and counters on fixed inputs.

    python3 jobs/bench_engine.py [--repeat N] [--label NAME] [--out FILE] [--opcodes]
    python3 jobs/bench_engine.py --ab CHECKOUT [--repeat N] [--label NAME] [--out FILE] [--opcodes]
    python3 jobs/bench_engine.py --check LABEL [--out FILE]

Runs ``run_system`` over every group of two fixed inputs, for the three
Hamlet systems, ``--repeat`` times, and records per (input, system) the
best wall time of a whole pass (all groups, in milliseconds) next to the
engine counters ``ops``, ``coeff_ops``, ``snapshots_created`` and
``peak_mem_bytes``, which repeat exactly from pass to pass. No Spark.

``--opcodes`` also records, per (input, system), the number of Python
opcodes one ``run_system`` call over the input's group 0 executes
(``sys.settrace`` with opcode events; builtins run in C and are not
counted). The count does not depend on the host's speed, so it backs up
the best times when host noise hides a difference.

The inputs are perfbench's ``nyc-shared`` input (T11 regime: every burst
shared, no query diverges) and ``stock-diverse`` input (T12 regime:
predicates, edge predicates and several sharable sets), both at seed 1;
they are the inputs of the same name in ``jobs/equivalence.py``.

The results go into ``FILE`` (default ``BENCH_engine.json``) under
``--label``, next to the labels already there. A label that is already
there keeps the better time of its runs and adds up their passes, so
alternating invocations make one best-of-N across all of them; its
counters must come out the same every time.

``--ab CHECKOUT`` compares this checkout with another one on the same
machine: it loads ``CHECKOUT/src/repro`` under another package name
(``src/`` imports only relatively) and, for each (input, system),
alternates a pass of that checkout with a pass of this one, swapping
which goes first from round to round, so that both labels' bests come
from the same stretch of the host's time. Each side builds its inputs
with its own modules. Both labels are written: ``--label`` for this
checkout, and ``"<short commit> (parent)"`` for ``CHECKOUT`` (its path
when it is no git work tree).

``--check LABEL`` runs every (input, system) once and compares each
counter of ``COUNTERS`` exactly with ``LABEL``'s in ``FILE``. It prints
every difference, exits 1 if there is one and 0 otherwise, and writes
nothing: a change that must leave the engine's work as it was checks
against its parent's label.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))
from equivalence import _inputs  # noqa: E402

CONFIGS = ("nyc-shared", "stock-diverse")
SYSTEMS = ("hamlet", "hamlet-static", "hamlet-nonshared")
COUNTERS = ("ops", "coeff_ops", "snapshots_created", "peak_mem_bytes")


def count_opcodes(fn) -> int:
    """The Python opcodes executed by ``fn()``, in every frame it runs."""
    n = 0

    def local(frame, event, arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    prev = sys.gettrace()
    sys.settrace(enter)
    try:
        fn()
    finally:
        sys.settrace(prev)
    return n


def bench(repeat: int, opcodes: bool = False) -> dict:
    """``{config: {system: {"best_ms", counters...}}}`` over ``repeat``
    passes, with each ``opcodes`` count when asked."""
    return interleaved(repeat, opcodes, ("repro",))[0]


def interleaved(repeat: int, opcodes: bool, pkgs: tuple) -> list[dict]:
    """``bench``'s results for each package of ``pkgs`` (checkouts of
    ``src/repro``), their passes over each (input, system) interleaved:
    one pass of each per round, the order reversed every other round."""
    sides = []
    for pkg in pkgs:
        engine = importlib.import_module(f"{pkg}.core.engine")
        group_events = importlib.import_module(f"{pkg}.streams").group_events
        sides.append((engine, group_events, _inputs(pkg)))
    outs: list[dict] = [{} for _ in pkgs]
    for name in CONFIGS:
        runs = []
        for out, (engine, group_events, inputs) in zip(outs, sides):
            make_stream, make_workload, _ = inputs[name]
            groups = group_events(make_stream())
            out[name] = {"events": sum(len(evs) for evs in groups.values())}
            runs.append((engine, groups, make_workload()))
        for system in SYSTEMS:
            best = [float("inf")] * len(runs)
            totals = [None] * len(runs)
            for r in range(repeat):
                for j in (range(len(runs)) if r % 2 == 0 else reversed(range(len(runs)))):
                    engine, groups, workload = runs[j]
                    total = engine.RunResult(system=system)
                    t0 = time.perf_counter()
                    for evs in groups.values():
                        total.merge(engine.run_system(evs, workload, system))
                    best[j] = min(best[j], time.perf_counter() - t0)
                    totals[j] = total
            for out, (engine, groups, workload), b, total in zip(outs, runs, best, totals):
                out[name][system] = {
                    "best_ms": round(b * 1e3, 2),
                    **{c: getattr(total.metrics, c) for c in COUNTERS},
                }
                if opcodes:
                    first = next(iter(groups.values()))
                    out[name][system]["opcodes"] = count_opcodes(
                        lambda: engine.run_system(first, workload, system)
                    )
    return outs


def load_checkout(path: str, pkg: str = "repro_ab") -> str:
    """Import ``path/src/repro`` as package ``pkg``; returns ``pkg``."""
    root = os.path.join(path, "src", "repro")
    spec = importlib.util.spec_from_file_location(
        pkg, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    sys.modules[pkg] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[pkg])
    return pkg


def checkout_label(path: str) -> str:
    """``"<short commit> (parent)"`` for a git work tree, else the path."""
    try:
        sha = subprocess.run(
            ["git", "-C", path, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return os.path.abspath(path)
    return f"{sha} (parent)"


def record(doc: dict, label: str, run: dict) -> None:
    """Put ``run`` into ``doc`` under ``label``. A label already there keeps
    the better time of each (input, system) and adds up the passes; its
    counters must be the same."""
    prev = doc["runs"].get(label)
    if prev is not None:
        run["repeat"] += prev["repeat"]
        for name, per_sys in run["results"].items():
            for system in SYSTEMS:
                new, old = per_sys[system], prev["results"][name][system]
                same = COUNTERS + (("opcodes",) if "opcodes" in new and "opcodes" in old else ())
                if any(new[c] != old[c] for c in same):
                    raise SystemExit(f"{label}: {name} {system} counters differ from the file's")
                new["best_ms"] = min(new["best_ms"], old["best_ms"])
                if "opcodes" in old:
                    new["opcodes"] = old["opcodes"]
    doc["runs"][label] = run


def differences(want: dict, got: dict) -> list[str]:
    """Each counter of ``COUNTERS`` in which the ``bench`` results ``got``
    differ from ``want``, as ``"input system counter: want -> got"``; a
    counter that ``want`` lacks differs."""
    out = []
    for name in CONFIGS:
        for system in SYSTEMS:
            for c in COUNTERS:
                a = want.get(name, {}).get(system, {}).get(c)
                b = got[name][system][c]
                if a != b:
                    out.append(f"{name} {system} {c}: {a} -> {b}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeat", type=int, default=20, help="passes per (input, system)")
    p.add_argument("--label", default="current", help="key of this run in the file")
    p.add_argument("--out", default="BENCH_engine.json", help="JSON file to update")
    p.add_argument(
        "--opcodes", action="store_true", help="also count the opcodes of one group-0 run"
    )
    p.add_argument(
        "--ab", metavar="CHECKOUT",
        help="also run CHECKOUT's src/repro, its passes interleaved with this checkout's",
    )
    p.add_argument(
        "--check", metavar="LABEL",
        help="run once and compare every counter with LABEL's; exit 1 on a difference, write nothing",
    )
    args = p.parse_args(argv)
    doc = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    if args.check is not None:
        if args.check not in doc["runs"]:
            raise SystemExit(f"{args.check}: no such label in {args.out}")
        diffs = differences(doc["runs"][args.check]["results"], bench(1))
        print("\n".join(diffs) if diffs else f"every counter equals {args.check}'s")
        return 1 if diffs else 0
    if args.ab is None:
        labels = [args.label]
        results = [bench(args.repeat, args.opcodes)]
    else:
        labels = [args.label, checkout_label(args.ab)]
        if labels[1] == labels[0]:
            raise SystemExit(f"--label {args.label!r} is the other checkout's label too")
        results = interleaved(args.repeat, args.opcodes, ("repro", load_checkout(args.ab)))
    for label, res in zip(labels, results):
        run = {
            "repeat": args.repeat,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "results": res,
        }
        record(doc, label, run)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    for label in labels:
        print(f"{label}:")
        for name, per_sys in doc["runs"][label]["results"].items():
            for system in SYSTEMS:
                r = per_sys[system]
                print(
                    f"{name:14s} {system:17s} {r['best_ms']:9.2f} ms  "
                    + "  ".join(f"{c}={r[c]}" for c in COUNTERS + ("opcodes",) if c in r)
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
