"""Benchmark for the Hamlet reproduction: three workloads, end-to-end
metrics from outside the program, and a traced per-layer run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload nyc-shared --seed 1 --seconds 6 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``nyc-shared``    T11 regime: every burst shared, no query diverges.
- ``stock-diverse`` T12 regime: diverse predicates, snapshots, splits.
- ``stream-panes``  a short T11 input: the stream phase weighs more.

Each workload runs the in-process path (``group_events`` +
``run_system``) and the Spark batch path (``run_workload_spark``) over
its input, and the streaming path (``run_stream``, one 1-min pane per
micro-batch) over one minute of the same generator, so every workload
reports every metric. The streaming runtime supports one window size,
so on ``stock-diverse`` the stream phase gives every query the larger
window.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric with its quartiles and sample count, and the run's
provenance. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics. The exit code is 1 when a correctness check
fails and 2 when the checkout has no ``src/repro`` to benchmark.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_ROUNDS = 3  # cold launch + two relaunches; setup_s is their median
# batch calls before and after the stream phase, even when --seconds runs
# out first
MIN_ROUNDS_BEFORE, MIN_ROUNDS_AFTER = 5, 4
MIN_INPROC_PASSES = 6  # evaluations per window behind the latency metrics
MAX_PASSES = 40  # batch calls
MAX_INPROC_PASSES = 400
GRETA_SAMPLE_WINDOWS = 3
REL_TOL = 1e-9
REF_LOOP_N = 300_000
PANE_S = 60.0
# The streamed input: one 1-min pane plus the flush pane, two micro-batches
# with engine state carried from the first to the second. At 64 state
# partitions each micro-batch costs seconds, so the prefix stays short.
STREAM_S = 57.0


# -- workloads --------------------------------------------------------------


@dataclass
class Workload:
    """Every workload runs every path: in-process passes and Spark batch
    calls over its whole input for ``--seconds``, and one ``run_stream``
    call over ``STREAM_S`` seconds of the same generator."""

    name: str
    minutes: float
    check_nonshared: bool = False
    windows: tuple = ()

    def stream(self, seed: int, minutes: float | None = None):
        from repro.streams import nyc_taxi_stream, stock_stream

        minutes = self.minutes if minutes is None else minutes
        if self.name == "stock-diverse":
            return stock_stream(
                minutes=minutes, events_per_min=150, n_groups=4,
                burst_mean=30.0, p_kleene=0.55, seed=seed,
            )
        return nyc_taxi_stream(minutes=minutes, events_per_min=200, n_groups=4, seed=seed)

    def queries(self, windows: tuple | None = None):
        from repro.core.workloads import workload1, workload2

        windows = windows or self.windows
        if self.name == "stock-diverse":
            return workload2(40, kleene_type="T", windows=windows, seed=5)
        w = windows[0]
        return workload1(
            50, kleene_type="T", prefixes=("R", "P", "D", "C"), window=w, slide=w
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("nyc-shared", minutes=40.0, windows=(240.0,)),
        Workload("stock-diverse", minutes=12.0, check_nonshared=True, windows=(60.0, 120.0)),
        # a short T11 input: the stream phase is a larger share of the run
        # and Spark's per-call costs a larger share of batch_eps
        Workload("stream-panes", minutes=24.0, windows=(240.0,)),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "inproc_eps": "events/s",
    "window_p50_ms": "ms",
    "window_p95_ms": "ms",
    "batch_eps": "events/s",
    "stream_eps": "events/s",
    "stream_batch_p50_ms": "ms",
    "stream_state_bytes": "bytes",
}

PER_LAYER_UNITS = {
    "host.ref_loop_ms": "ms",
    "trace.overhead_share": "ratio",
    "streams.gen_s": "s",
    "events.convert_s": "s",
    "events.convert_us_per_event": "us",
    "events.self_s": "s",
    "engine.run_system_s": "s",
    "engine.slice_s": "s",
    "engine.window_evals": "count",
    "engine.self_s": "s",
    "optimizer.calls": "count",
    "optimizer.self_s": "s",
    "optimizer.us_per_call": "us",
    "optimizer.plans_per_call": "count",
    "optimizer.shared_ratio": "ratio",
    "hamlet.on_event_self_s": "s",
    "hamlet.results_s": "s",
    "hamlet.self_s": "s",
    "hamlet.events": "count",
    "hamlet.ops": "count",
    "hamlet.ops_per_event": "count",
    "hamlet.coeff_ops": "count",
    "hamlet.snapshots": "count",
    "hamlet.splits": "count",
    "hamlet.merges": "count",
    "hamlet.peak_mem_bytes": "bytes",
    "batch.wall_s": "s",
    "batch.udf_tasks": "count",
    "batch.overhead_s": "s",
    "batch.overhead_share": "ratio",
    "batch.result_rows": "count",
    "batch.self_s": "s",
    "stream.batches": "count",
    "stream.input_rows": "count",
    "stream.emitted_rows": "count",
    "stream.add_batch_ms_p50": "ms",
    "stream.wal_commit_ms_p50": "ms",
    "stream.query_planning_ms_p50": "ms",
    "stream.state_partitions": "count",
    "stream.state_rows": "count",
    "stream.state_commit_ms_p50": "ms",
    "stream.state_update_ms_p50": "ms",
    "stream.write_panes_s": "s",
    "stream.self_s": "s",
}


# -- small helpers ----------------------------------------------------------


def ref_loop_ms() -> float:
    """A fixed pure-Python loop: host speed, independent of the program."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_LOOP_N):
        s += i * i
    return (time.perf_counter() - t0) * 1e3


def host_probe() -> list[float]:
    return [ref_loop_ms() for _ in range(5)]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


def same_value(a: float, b: float, rel: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if rel == 0.0:
        return a == b
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def rows_from_run(gkey: int, rr) -> dict:
    """(gkey, window_start) -> {(qid, agg): value} from a RunResult."""
    out: dict = {}
    for (qid, ws), aggs in rr.results.items():
        cell = out.setdefault((gkey, float(ws)), {})
        for agg, val in aggs.items():
            cell[(qid, agg)] = float(val)
    return out


def rows_from_frame(pdf) -> dict:
    out: dict = {}
    for g, ws, qid, agg, val in pdf[["gkey", "window_start", "qid", "agg", "value"]].itertuples(
        index=False, name=None
    ):
        out.setdefault((int(g), float(ws)), {})[(qid, agg)] = float(val)
    return out


def bad_windows(got: dict, want: dict, rel: float = 0.0, keys=None) -> set:
    """(gkey, window) keys whose rows differ between two row maps."""
    bad = set()
    for k in keys if keys is not None else set(got) | set(want):
        a, b = got.get(k), want.get(k)
        if a is None or b is None or a.keys() != b.keys():
            bad.add(k)
        elif not all(same_value(a[c], b[c], rel) for c in a):
            bad.add(k)
    return bad


# -- Spark ------------------------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def spark_env(tmp: Path) -> None:
    """Environment read at JVM launch and inherited by Python workers."""
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    # pyspark's pandas serializer warns once per task; keep output to metrics
    os.environ["PYTHONWARNINGS"] = "ignore::FutureWarning"
    os.environ["TMPDIR"] = str(tmp)
    os.environ.setdefault("PYSPARK_PYTHON", sys.executable)
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)


def build_session(tmp: Path):
    from pyspark.sql import SparkSession

    java_opts = (
        f"-Djava.io.tmpdir={tmp} "
        f"-Dlog4j.configurationFile=file:{HERE / 'log4j2.properties'}"
    )
    spark = (
        SparkSession.builder.master(f"local[{nproc()}]")
        .appName("perfbench")
        .config("spark.driver.memory", "2g")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", java_opts)
        .config("spark.local.dir", str(tmp / "spark-local"))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # the repository's session settings (conftest.py)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session, then the JVM the gateway launched, and wait for it."""
    from pyspark import SparkContext

    if spark is not None:
        spark.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    from py4j.protocol import Py4JError

    proc = getattr(gw, "proc", None)
    try:
        gw.shutdown()
    except Py4JError:  # the JVM may already be gone; the wait below decides
        pass
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        try:
            proc.stdin.close()  # the launched JVM exits when its stdin closes
        except OSError:
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


class ProgressLog:
    """Collects StreamingQueryListener progress events as dicts."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self.lock = threading.Lock()

    def listener(self):
        from pyspark.sql.streaming import StreamingQueryListener

        log = self

        class _L(StreamingQueryListener):
            def onQueryStarted(self, event):
                pass

            def onQueryProgress(self, event):
                with log.lock:
                    log.events.append(json.loads(event.progress.json))

            def onQueryIdle(self, event):
                pass

            def onQueryTerminated(self, event):
                pass

        return _L()

    def take(self, expect: int, timeout: float = 10.0) -> list[dict]:
        """Wait (bounded) for ``expect`` progress events, then drain."""
        t_end = time.time() + timeout
        while time.time() < t_end:
            with self.lock:
                if len(self.events) >= expect:
                    break
            time.sleep(0.05)
        with self.lock:
            out, self.events = self.events, []
        return out


class StagePoller:
    """Samples ``statusTracker`` while a Spark call runs, so stage spans can
    be drawn from Spark's own API: first and last time each stage was seen
    active, plus its task count."""

    def __init__(self, sc, period: float = 0.01) -> None:
        self.sc, self.period = sc, period
        self.seen: dict[int, list[float]] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        st = self.sc.statusTracker()
        while not self._stop.is_set():
            now = time.perf_counter()
            for sid in st.getActiveStageIds():
                self.seen.setdefault(sid, [now, now])[1] = now
            self._stop.wait(self.period)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=10)
        return False


# -- the run ----------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        self.notes.append(what)


def inproc_pass(pdf, wl, system: str = "hamlet", tr=None):
    """group_events + run_system per group: the harness path.
    Returns (wall seconds, rows, {(group, window): seconds}, metrics,
    parts): ``parts`` splits the wall time into group_events (key
    ``"convert"``) and each group's run_system (key: the group)."""
    from repro.core.engine import run_system
    from repro.core.hamlet import Metrics
    from repro.streams import group_events

    span = tr.span if tr is not None else None
    t0 = time.perf_counter()
    if span:
        with span("events.group_events"):
            groups = group_events(pdf)
    else:
        groups = group_events(pdf)
    parts = {"convert": time.perf_counter() - t0}
    runs = {}
    for g, evs in groups.items():
        tg = time.perf_counter()
        if span:
            with span("engine.run_system", gkey=g):
                runs[g] = run_system(evs, wl, system)
        else:
            runs[g] = run_system(evs, wl, system)
        parts[g] = time.perf_counter() - tg
    wall = time.perf_counter() - t0
    rows, samples, m = {}, {}, Metrics()
    for g, rr in runs.items():
        rows.update(rows_from_run(g, rr))
        samples.update(((g, float(ws)), sec) for ws, sec in rr.window_wall.items())
        m.absorb(rr.metrics)
    return wall, rows, samples, m, parts


def batch_pass(spark, sdf, wl):
    from repro.sparkrt.batch import run_workload_spark

    t0 = time.perf_counter()
    out = run_workload_spark(spark, sdf, wl, system="hamlet").toPandas()
    return time.perf_counter() - t0, out


def setup_round(spark, wl, warm_pdf, tmp: Path):
    """SparkSession launch plus a warm-up batch call. The first round
    launches the JVM; later rounds stop the session and launch a new one.
    Returns the session, the round's seconds and the warm-up rows."""
    from repro.sparkrt.batch import run_workload_spark
    from repro.streams import to_spark

    t0 = time.perf_counter()
    if spark is not None:
        spark.stop()
    spark = build_session(tmp)
    out = run_workload_spark(spark, to_spark(spark, warm_pdf), wl).toPandas()
    return spark, time.perf_counter() - t0, out


def greta_check(wk: Workload, groups, wl, ref: dict, seed: int) -> set:
    """Recompute a seeded sample of windows with GRETA, the independent
    reference; returns the (gkey, window) keys that disagree."""
    from repro.core.engine import run_system

    span = max(wk.windows)
    cands = sorted(k for k in ref if k[1] % span == 0)
    picks = random.Random(seed).sample(cands, min(GRETA_SAMPLE_WINDOWS, len(cands)))
    bad = set()
    for g, ws in picks:
        evs = [e for e in groups[g] if ws <= e.time < ws + span]
        got = rows_from_run(g, run_system(evs, wl, "greta"))
        bad |= bad_windows(got, ref, REL_TOL, keys=got.keys())
    return bad


class BatchPhase:
    """In-process passes and batch calls over the whole input, and what
    they leave for the checks and reports. The runner calls it at several
    points of a run, so that a slow stretch of the host hits few samples."""

    def __init__(self, pdf, wl, tr) -> None:
        self.pdf, self.wl, self.tr = pdf, wl, tr
        self.inproc_walls: list = []
        self.parts: dict = {}  # "convert" or group -> [seconds], one per pass
        self.batch_walls: list = []
        self.samples: dict = {}  # (group, window) -> [seconds], one per pass
        self.inproc_runs: list = []  # row maps; None = the pass raised
        self.batch_runs: list = []  # frames; None = the call raised
        self.traced = None  # (wall, metrics, first span, parts)

    def inproc(self):
        """One timed, untraced in-process pass; returns its parts."""
        try:
            wall, rows, s, _, parts = inproc_pass(self.pdf, self.wl)
        except Exception:
            traceback.print_exc()
            self.inproc_runs.append(None)
            return None
        self.inproc_walls.append(wall)
        for k, sec in parts.items():
            self.parts.setdefault(k, []).append(sec)
        for k, sec in s.items():
            self.samples.setdefault(k, []).append(sec)
        self.inproc_runs.append(rows)
        return parts

    def inproc_for(self, seconds: float) -> None:
        """Untraced in-process passes for ``seconds`` (at least one),
        stopping like :meth:`rounds`."""
        deadline = time.perf_counter() + seconds
        while len(self.inproc_runs) < MAX_INPROC_PASSES:
            t_pass = time.perf_counter()
            self.inproc()
            now = time.perf_counter()
            if now + (now - t_pass) / 2 >= deadline:
                break

    def rounds(self, spark, sdf, seconds: float, min_rounds: int) -> None:
        """Rounds of one in-process pass and one batch call, for
        ``seconds``; traced, each round adds a traced pass and traces the
        batch call."""
        tr = self.tr
        deadline = time.perf_counter() + seconds
        n = 0
        while n < MAX_PASSES:
            n += 1
            t_round = time.perf_counter()
            parts = self.inproc()
            if tr is not None:  # a traced pass next to each untraced one
                from tracing import install

                since = len(tr.spans)
                install(tr)
                try:
                    twall, trows, _, tm, _ = inproc_pass(self.pdf, self.wl, tr=tr)
                finally:
                    tr.uninstall()
                self.traced = (twall, tm, since, parts or {})
                self.inproc_runs.append(trows)
            try:
                if tr is not None:
                    bwall, bout = traced_batch_pass(spark, sdf, self.wl, tr)
                else:
                    bwall, bout = batch_pass(spark, sdf, self.wl)
                self.batch_walls.append(bwall)
                self.batch_runs.append(bout)
            except Exception:
                traceback.print_exc()
                self.batch_runs.append(None)
            # stop when another round would end nearer past the deadline
            # than before it
            now = time.perf_counter()
            if n >= min_rounds and now + (now - t_round) / 2 >= deadline:
                break

    def top_up(self) -> None:
        """More in-process passes until every window has been evaluated
        ``MIN_INPROC_PASSES`` times."""
        while len(self.inproc_walls) < MIN_INPROC_PASSES and len(self.inproc_runs) < MAX_INPROC_PASSES:
            self.inproc()


@dataclass
class StreamPhase:
    n_files: int = 0
    write_s: float = 0.0
    walls: list = field(default_factory=list)
    progress: list = field(default_factory=list)  # listener progress dicts
    results: list = field(default_factory=list)  # frames; None = raised


def stream_phase(spark, spdf, wl, window: float, tmp: Path, tr) -> StreamPhase:
    """``write_pane_files``, then one ``run_stream`` call: at 64 state
    partitions its two micro-batches take the better part of a run."""
    from repro.sparkrt.streaming import run_stream, write_pane_files

    ph = StreamPhase()
    plog = ProgressLog()
    listener = plog.listener()
    spark.streams.addListener(listener)
    in_dir = tmp / "panes"
    t0 = time.perf_counter()
    ph.n_files = write_pane_files(spdf, PANE_S, str(in_dir), window)
    ph.write_s = time.perf_counter() - t0
    if tr is not None:
        tr.enabled = True
    sp = None
    try:
        t0 = time.perf_counter()
        with tr.span("stream.run_stream") if tr else nullcontext() as sp:
            res = run_stream(
                spark, str(in_dir), wl, system="hamlet", window=window,
                checkpoint_dir=str(tmp / "ckpt"),
            )
        ph.walls.append(time.perf_counter() - t0)
        ph.results.append(res)
    except Exception:
        traceback.print_exc()
        ph.results.append(None)
        sp = None
    finally:
        if tr is not None:
            tr.enabled = False
        ph.progress = plog.take(ph.n_files)
        spark.streams.removeListener(listener)
    if tr is not None and sp is not None:
        add_microbatch_spans(tr, sp, ph.progress)
    return ph


def run_workload(wk, args, pdf, wl, tmp, out, tally, tr):
    """Setup rounds, in-process passes and batch calls over the whole
    input, the stream phase, then the checks.

    The measuring is spread over the run, since slow stretches of the
    host last seconds: in-process passes fill the gaps between setup
    rounds, and the batch rounds are split before and after the stream
    phase. ``--seconds`` is split in four: two gaps and two halves."""
    from repro.streams import to_spark

    spark, setups = None, []
    bp = BatchPhase(pdf, wl, tr)
    share = args.seconds / 4
    # the streaming runtime supports one tumbling window size: every query
    # gets the workload's largest window (only stock-diverse has two)
    window = max(wk.windows)
    swl = wl if len(set(wk.windows)) == 1 else wk.queries((window,))
    # a fixed-rate minute of the generator, not the input's first minute,
    # whose event count varies with the seed
    spdf = wk.stream(args.seed, minutes=STREAM_S / 60.0)
    # All setup rounds come before any batch call: Spark's first calls on
    # a plan run slower while the JVM compiles it, and that belongs to
    # setup, not batch_eps. In-process passes do not touch the JVM. The
    # warm-up call runs the streamed minute; when the stream phase runs
    # the same queries, its rows are what the streamed rows must equal.
    n_setup = 1 if tr else SETUP_ROUNDS
    for i in range(n_setup):
        spark, t_setup, warm_out = setup_round(spark, wl, spdf, tmp)
        setups.append(t_setup)
        if i < n_setup - 1:
            bp.inproc_for(share)
    out.provenance(spark)
    t_measure = time.perf_counter()
    sdf = to_spark(spark, pdf)
    bp.rounds(spark, sdf, share, MIN_ROUNDS_BEFORE)
    sp = stream_phase(spark, spdf, swl, window, tmp, tr)
    if tr is None:  # traced, the last traced pass stays before the stream
        bp.rounds(spark, sdf, share, MIN_ROUNDS_AFTER)
        bp.top_up()
    t_check = time.perf_counter()
    check_batch(wk, args, pdf, wl, bp, tally)
    want = rows_from_frame(warm_out) if swl is wl else None
    check_stream(wk, args, spark, spdf, swl, sp, tally, want)
    print(f"# phases: setup={sum(setups):.1f}s measure={t_check - t_measure:.1f}s "
          f"checks={time.perf_counter() - t_check:.1f}s")

    n_events = len(pdf)
    if tr is None:
        out.series("setup_s", setups, "s")
        out.inproc_rate(n_events, bp.parts, bp.inproc_walls)
        out.latency(bp.samples)
        out.series("batch_eps", [n_events / w for w in bp.batch_walls], "events/s")
        out.series("stream_eps", [len(spdf) / w for w in sp.walls], "events/s")
        out.series("stream_batch_p50_ms", [float(p["batchDuration"]) for p in sp.progress], "ms")
        state = [
            float(st.get("memoryUsedBytes", 0))
            for p in sp.progress for st in p.get("stateOperators", [])
        ]
        out.put("stream_state_bytes", max(state, default=0.0), n=len(state))
        return spark
    twall, tm, since, parts = bp.traced
    out.engine_layers(tr, since, tm, n_events, parts)
    out.put("trace.overhead_share", twall / statistics.median(bp.inproc_walls) - 1.0)
    out.batch_layers(tr, bp.batch_walls[-1], bp.batch_runs[-1])
    out.stream_layers(tr, sp.progress, sp.results, sp.write_s)
    out.trace_since = since  # the last traced in-process pass onwards
    return spark


def check_batch(wk, args, pdf, wl, bp: BatchPhase, tally) -> None:
    """In-process passes against the first one, GRETA and (on
    stock-diverse) hamlet-nonshared; batch results against the in-process
    rows."""
    from repro.core.engine import run_system
    from repro.streams import group_events

    groups = group_events(pdf)
    bad_ref = set()
    ref = next((r for r in bp.inproc_runs if r is not None), None)
    if ref is None:
        tally.fail("every in-process pass raised")
        ref = {}
    else:
        bad_ref |= greta_check(wk, groups, wl, ref, args.seed)
        if bad_ref:
            tally.notes.append(f"GRETA disagrees on {sorted(bad_ref)}")
        if wk.check_nonshared:
            ns = {}
            for g, evs in groups.items():
                ns.update(rows_from_run(g, run_system(evs, wl, "hamlet-nonshared")))
            bad_ns = bad_windows(ns, ref, REL_TOL)
            if bad_ns:
                tally.notes.append(f"hamlet-nonshared disagrees on {len(bad_ns)} windows")
            bad_ref |= bad_ns
    n_ops = max(len(ref), 1)
    batch_rows = [None if b is None else rows_from_frame(b) for b in bp.batch_runs]
    for kind, runs in (("in-process", bp.inproc_runs), ("batch", batch_rows)):
        for rows in runs:
            tally.attempted += n_ops
            if rows is None:
                tally.fail(f"{kind} pass raised", n_ops)
                continue
            bad = bad_windows(rows, ref) | (bad_ref & set(rows))
            if bad:
                tally.fail(f"{kind} pass: {len(bad)} windows wrong", len(bad))


def check_stream(wk, args, spark, spdf, wl, sp: StreamPhase, tally, want) -> None:
    """Streamed rows against ``want``, the ``run_workload_spark`` rows on
    the same stream (a batch call here when None), and a sample of those
    windows against GRETA. One operation per micro-batch."""
    from repro.sparkrt.batch import run_workload_spark
    from repro.streams import group_events, to_spark

    if want is None:
        want = rows_from_frame(run_workload_spark(spark, to_spark(spark, spdf), wl).toPandas())
    bad_ref = greta_check(wk, group_events(spdf), wl, want, args.seed)
    if bad_ref:
        tally.notes.append(f"GRETA disagrees on streamed windows {sorted(bad_ref)}")
    closes = emit_batch(spdf, max(wk.windows))
    for res in sp.results:
        tally.attempted += sp.n_files
        if res is None:
            tally.fail("run_stream raised", sp.n_files)
            continue
        got = rows_from_frame(res)
        bad = bad_windows(got, want) | (bad_ref & set(got))
        if bad:
            tally.fail(
                f"stream: {len(bad)} windows differ from batch",
                len({closes.get(k, sp.n_files - 1) for k in bad}),
            )
    if len(sp.progress) < sp.n_files * len(sp.walls):
        tally.notes.append(
            f"listener saw {len(sp.progress)} of {sp.n_files * len(sp.walls)} micro-batches"
        )


def traced_batch_pass(spark, sdf, wl, tr):
    """One batch call with Spark stage spans from ``statusTracker``."""
    sc = spark.sparkContext
    group = f"perfbench-{len(tr.spans)}"
    sc.setJobGroup(group, "traced batch call")
    tr.enabled = True
    try:
        with StagePoller(sc) as poll, tr.span("batch.run_workload_spark") as sp:
            wall, out = batch_pass(spark, sdf, wl)
    finally:
        tr.enabled = False
        sc.setLocalProperty("spark.jobGroup.id", None)
    st = sc.statusTracker()
    stage_ids = sorted(
        s for j in st.getJobIdsForGroup(group) if (info := st.getJobInfo(j)) for s in info.stageIds
    )
    udf_tasks = 0
    for sid in stage_ids:
        info = st.getStageInfo(sid)
        if info is None:
            continue
        t0, t1 = poll.seen.get(sid, (sp.start, sp.start))
        tr.add("spark.stage", t0, t1, sp.sid, stage=sid, tasks=info.numTasks, stage_name=info.name)
        udf_tasks = info.numTasks  # the last stage runs applyInPandas
    sp.attrs["udf_tasks"] = udf_tasks
    stages = [s for s in tr.spans if s.name == "spark.stage" and s.parent == sp.sid]
    sp.self_s = (sp.end - sp.start) - covered(stages, sp.start, sp.end)
    return wall, out


def covered(spans, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the spans' intervals."""
    iv = sorted((max(s.start, lo), min(s.end, hi)) for s in spans)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in iv:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            total += 0.0 if cur_e is None else cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + (0.0 if cur_e is None else cur_e - cur_s)


def emit_batch(pdf, window: float) -> dict:
    """(gkey, window_start) -> index of the micro-batch that closes it:
    the first pane file in which the group's time passes the window end
    (pane files are numbered in pane order; the flush file is last)."""
    pane_ids = sorted((pdf["time"] // PANE_S).astype(int).unique())
    file_of = {p: i for i, p in enumerate(pane_ids)}
    flush = len(pane_ids)
    out = {}
    for g, sub in pdf.groupby("gkey"):
        times = sub["time"].to_numpy()
        for wid in sorted(set((times // window).astype(int))):
            end = (wid + 1) * window
            later = times[times >= end]
            idx = file_of[int(later.min() // PANE_S)] if len(later) else flush
            out[(int(g), float(wid * window))] = idx
    return out


def add_microbatch_spans(tr, parent, prog: list[dict]) -> None:
    """Micro-batch spans from listener progress (trigger start + duration),
    mapped onto the ``perf_counter`` clock; the parent's self time becomes
    the part of ``run_stream`` outside any micro-batch."""
    shift = time.perf_counter() - time.time()
    kids = []
    for p in prog:
        ts = datetime.fromisoformat(p["timestamp"].replace("Z", "+00:00")).timestamp()
        start = ts + shift
        kids.append(
            tr.add(
                "stream.microbatch", start, start + p["batchDuration"] / 1e3,
                parent.sid, batch=p["batchId"], rows=p["numInputRows"],
            )
        )
    parent.self_s = (parent.end - parent.start) - covered(kids, parent.start, parent.end)


# -- reporting --------------------------------------------------------------


class Report:
    def __init__(self, args, wk: Workload) -> None:
        self.args, self.wk = args, wk
        self.metrics: dict[str, dict] = {}
        self.info: dict = {}
        self.trace_since = 0  # first span of the traced passes reported

    def provenance(self, spark) -> None:
        import pyspark

        conf = spark.conf
        self.info.update(
            workload=self.wk.name,
            seed=self.args.seed,
            nproc=nproc(),
            python=platform.python_version(),
            spark=pyspark.__version__,
            master=spark.sparkContext.master,
            shuffle_partitions=conf.get("spark.sql.shuffle.partitions"),
            aqe=conf.get("spark.sql.adaptive.enabled"),
            trace=self.args.trace,
        )

    def put(self, name: str, value: float, n: int = 1, q=None) -> None:
        units = PER_LAYER_UNITS if self.args.trace else END_TO_END_UNITS
        unit = units[name]
        self.metrics[name] = {"value": float(value), "unit": unit}
        extra = f"  q1={q[0]:.6g} q3={q[1]:.6g}" if q else ""
        print(f"{name:34s} {value:14.6g} {unit:9s} n={n}{extra}")

    def series(self, name: str, xs: list[float], unit: str) -> None:
        """Median of repeated measurements, with quartiles."""
        if not xs:
            return
        q1, q2, q3 = quartiles(xs)
        self.put(name, q2, n=len(xs), q=(q1, q3))
        print(f"#   {name} samples: " + " ".join(f"{x:.5g}" for x in xs))

    def inproc_rate(self, n_events: int, parts: dict, walls: list[float]) -> None:
        """Events over the pass time composed of its parts' fastest times:
        ``group_events`` and each group's ``run_system``, each the fastest
        over the passes (see README, "Steadiness")."""
        if not walls:
            return
        best = sum(min(secs) for secs in parts.values())
        rates = [n_events / w for w in walls]
        q1, _, q3 = quartiles(rates)
        self.put("inproc_eps", n_events / best, n=len(walls), q=(q1, q3))
        print("#   inproc_eps whole-pass rates: " + " ".join(f"{x:.5g}" for x in rates))

    def latency(self, samples: dict) -> None:
        """p50 over windows of each window's fastest evaluation; p95 over
        every evaluation."""
        best = [min(secs) * 1e3 for secs in samples.values()]
        every = [sec * 1e3 for secs in samples.values() for sec in secs]
        if not best:
            return
        q1, q2, q3 = quartiles(best)
        self.put("window_p50_ms", q2, n=len(best), q=(q1, q3))
        self.put("window_p95_ms", percentile(every, 95), n=len(every))
        reps = min(len(secs) for secs in samples.values())
        print(f"#   window latency: {len(best)} windows, each evaluated >= {reps} times")

    def engine_layers(self, tr, since: int, m, n_events: int, parts: dict) -> None:
        """Engine-side layers from one traced in-process pass; ``parts``
        holds each group's untraced run_system seconds."""
        conv = tr.busy("events.convert", since)
        calls = tr.calls("optimizer.choose_plan", since)
        opt_s = tr.self_time("optimizer.choose_plan", since)
        layer = tr.layer_self(since)
        self.put("events.convert_s", conv)
        self.put("events.convert_us_per_event", conv / max(n_events, 1) * 1e6)
        self.put("events.self_s", layer.get("events", 0.0))
        self.put("engine.run_system_s", tr.busy("engine.run_system", since))
        self.put("engine.slice_s", tr.busy("engine.slice", since))
        self.put("engine.window_evals", tr.calls("hamlet.end_window", since))
        self.put("engine.self_s", layer.get("engine", 0.0))
        self.put("optimizer.calls", calls)
        self.put("optimizer.self_s", opt_s)
        self.put("optimizer.us_per_call", opt_s / calls * 1e6 if calls else 0.0)
        self.put("optimizer.plans_per_call", m.plans_considered / m.decisions if m.decisions else 0.0)
        self.put("optimizer.shared_ratio", m.shared_bursts / m.bursts if m.bursts else 0.0)
        self.put("hamlet.on_event_self_s", tr.self_time("hamlet.on_event", since))
        self.put("hamlet.results_s", tr.busy("hamlet.results", since))
        self.put("hamlet.self_s", layer.get("hamlet", 0.0))
        self.put("hamlet.events", m.events)
        self.put("hamlet.ops", m.ops)
        self.put("hamlet.ops_per_event", m.ops / m.events if m.events else 0.0)
        self.put("hamlet.coeff_ops", m.coeff_ops)
        self.put("hamlet.snapshots", m.snapshots_created)
        self.put("hamlet.splits", m.splits)
        self.put("hamlet.merges", m.merges)
        self.put("hamlet.peak_mem_bytes", m.peak_mem_bytes)
        # slowest group's convert + engine time, for batch.overhead_s;
        # group_events converts the groups in key order
        convs = [s.busy for s in tr.spans[since:] if s.name == "events.convert"]
        self._slowest_group = max(
            (c + parts[g] for c, g in zip(convs, sorted(k for k in parts if k != "convert"))),
            default=0.0,
        )

    def batch_layers(self, tr, wall: float, bout) -> None:
        sp = [s for s in tr.spans if s.name == "batch.run_workload_spark"][-1]
        self.put("batch.wall_s", wall)
        self.put("batch.udf_tasks", sp.attrs.get("udf_tasks", 0))
        over = wall - self._slowest_group
        self.put("batch.overhead_s", over)
        self.put("batch.overhead_share", over / wall if wall else 0.0)
        self.put("batch.result_rows", len(bout) if bout is not None else 0)
        self.put("batch.self_s", sp.self_s)

    def stream_layers(self, tr, progress: list[dict], results, write_s: float) -> None:
        def p50(xs):
            return statistics.median(xs) if xs else 0.0

        dur = lambda k: [float(p["durationMs"].get(k, 0)) for p in progress]
        ops = [st for p in progress for st in p.get("stateOperators", [])]
        self.put("stream.batches", len(progress))
        self.put("stream.input_rows", sum(p["numInputRows"] for p in progress))
        self.put("stream.emitted_rows", sum(len(r) for r in results if r is not None))
        self.put("stream.add_batch_ms_p50", p50(dur("addBatch")))
        self.put("stream.wal_commit_ms_p50", p50(dur("walCommit")))
        self.put("stream.query_planning_ms_p50", p50(dur("queryPlanning")))
        self.put("stream.state_partitions", max((s.get("numShufflePartitions", 0) for s in ops), default=0))
        self.put("stream.state_rows", max((s.get("numRowsTotal", 0) for s in ops), default=0))
        self.put("stream.state_commit_ms_p50", p50([float(s.get("commitTimeMs", 0)) for s in ops]))
        self.put("stream.state_update_ms_p50", p50([float(s.get("allUpdatesTimeMs", 0)) for s in ops]))
        self.put("stream.write_panes_s", write_s)
        self.put("stream.self_s", tr.self_time("stream.run_stream"))

    def finish(self, tally: Tally, host_ms: list[float], tr) -> dict:
        q1, q2, q3 = quartiles(host_ms)
        print(f"# host.ref_loop_ms median={q2:.4g} q1={q1:.4g} q3={q3:.4g} "
              f"start={statistics.median(host_ms[:5]):.4g} end={statistics.median(host_ms[5:]):.4g}")
        if tr is not None:
            self.put("host.ref_loop_ms", q2, n=len(host_ms), q=(q1, q3))
            if "streams.gen_s" not in self.metrics:
                self.put("streams.gen_s", tr.busy("streams.gen"))
            for name in PER_LAYER_UNITS:  # layers a failed call left unmeasured
                if name not in self.metrics:
                    self.put(name, 0.0, n=0)
            for lay, s in sorted(tr.layer_self(self.trace_since).items()):
                print(f"# self time {lay:10s} {s:.4f} s")
        print("# " + " ".join(f"{k}={v}" for k, v in self.info.items()))
        print(f"# attempted={tally.attempted} failed={tally.failed}")
        for note in tally.notes:
            print(f"# check: {note}")
        return {
            "correct": tally.failed == 0,
            "attempted": max(tally.attempted, 1),
            "failed": tally.failed,
            "metrics": self.metrics,
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    warnings.filterwarnings("ignore", category=FutureWarning)

    wk = WORKLOADS[args.workload]
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    spark_env(tmp)
    host_ms = host_probe()
    tr = None
    if args.trace:
        from tracing import Tracer

        tr = Tracer()
    out = Report(args, wk)
    tally = Tally()
    spark = None
    try:
        t0 = time.perf_counter()
        pdf = wk.stream(args.seed)
        gen_s = time.perf_counter() - t0
        if tr is not None:
            tr.add("streams.gen", t0, t0 + gen_s, None, rows=len(pdf))
            out.put("streams.gen_s", gen_s)
        wl = wk.queries()
        spark = run_workload(wk, args, pdf, wl, tmp, out, tally, tr)
        host_ms += host_probe()
        result = out.finish(tally, host_ms, tr)
        if tr is not None:
            trace_dir = ROOT / ".bench_out"
            trace_dir.mkdir(exist_ok=True)
            tr.dump(str(trace_dir / f"trace-{wk.name}-{args.seed}.jsonl"))
    finally:
        stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
