"""Structured Streaming stateful operator: one pane per micro-batch,
live Hamlet engine state across batches, dynamic sharing per burst —
output must equal the batch engine's."""
import json
import os
import pickletools
import random
import subprocess
import sys
import time

import pandas as pd
import pytest
from pyspark import cloudpickle
from pyspark.sql.streaming import DataStreamWriter, StreamingQueryListener

import repro
from repro.core.brute import brute_results
from repro.core.engine import run_system, window_executors
from repro.core.events import Event, events_from_pandas
from repro.core.hamlet import HamletPlan
from repro.core.queries import COUNT_STAR, AggSpec, Atom, EdgePred, Kleene, Pred, Query, seq
from repro.core.workloads import workload1
from repro.sparkrt.batch import run_workload_spark
from repro.sparkrt.streaming import (
    FLUSH_TYPE,
    OUT_COLS,
    _dump_state,
    _load_state,
    _static_objects,
    make_stateful_func,
    run_stream,
    write_pane_files,
)
from repro.streams import ATTR_COLS, ridesharing_stream, to_spark

WINDOW = 20.0
PANE = 10.0


@pytest.fixture(scope="module")
def stream_pdf():
    return ridesharing_stream(
        minutes=1.0, events_per_min=180, n_groups=3, burst_mean=3.0,
        p_kleene=0.3, burst_cap=6, seed=23,
    )


@pytest.fixture(scope="module")
def workload():
    return workload1(3, kleene_type="T", window=WINDOW, slide=WINDOW)


SHUFFLE_PARTITIONS = "spark.sql.shuffle.partitions"


class _ProgressLog(StreamingQueryListener):
    """The progress events of the queries on the session it is added to."""

    def __init__(self):
        self.progress = []

    def onQueryStarted(self, event):
        pass

    def onQueryProgress(self, event):
        self.progress.append(json.loads(event.progress.json))

    def onQueryIdle(self, event):
        pass

    def onQueryTerminated(self, event):
        pass

    def wait_for(self, n, timeout=10.0):
        """The first ``n`` progress events; they arrive asynchronously."""
        t_end = time.monotonic() + timeout
        while len(self.progress) < n and time.monotonic() < t_end:
            time.sleep(0.05)
        return self.progress[:n]


@pytest.fixture(scope="module")
def stream_run(spark, stream_pdf, workload, tmp_path_factory):
    """One ``run_stream`` call: its rows, the progress events a listener on
    the caller's session saw, and the session's shuffle-partition setting
    before and after the call."""
    base = tmp_path_factory.mktemp("stream")
    in_dir, ckpt = str(base / "in"), str(base / "ckpt")
    n_files = write_pane_files(stream_pdf, PANE, in_dir, WINDOW)
    assert n_files >= 3  # several micro-batches, not one big batch
    log = _ProgressLog()
    spark.streams.addListener(log)
    before = spark.conf.get(SHUFFLE_PARTITIONS)
    try:
        out = run_stream(
            spark, in_dir, workload, system="hamlet", window=WINDOW, checkpoint_dir=ckpt
        )
        progress = log.wait_for(n_files)
    finally:
        spark.streams.removeListener(log)
    return out, progress, before, spark.conf.get(SHUFFLE_PARTITIONS)


@pytest.fixture(scope="module")
def streamed(stream_run):
    return stream_run[0]


def test_streaming_equals_batch(spark, stream_pdf, workload, streamed):
    batch = run_workload_spark(
        spark, to_spark(spark, stream_pdf), workload, system="hamlet"
    ).toPandas()
    key = ["gkey", "window_start", "qid", "agg"]
    got = streamed.sort_values(key).reset_index(drop=True)
    want = batch.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[key + ["value"]], want[key + ["value"]], check_dtype=False
    )


def test_streaming_emits_all_windows(streamed, stream_pdf):
    t_max = stream_pdf["time"].max()
    expected_windows = {w * WINDOW for w in range(int(t_max // WINDOW) + 1)}
    got_windows = set(streamed["window_start"].unique())
    # every window that contains events must have been closed by the flush
    assert got_windows <= expected_windows and len(got_windows) >= 2


def test_state_partitions_follow_session_parallelism(spark, stream_run):
    """The state store has one partition per core, not the session's
    shuffle-partition count, and the caller's setting is left as it was."""
    _, progress, before, after = stream_run
    ops = [op for p in progress for op in p["stateOperators"]]
    assert ops
    parallelism = spark.sparkContext.defaultParallelism
    assert {op["numShufflePartitions"] for op in ops} == {parallelism}
    assert after == before


def test_run_stream_restores_conf_when_start_raises(spark, workload, tmp_path, monkeypatch):
    seen = []

    def failing_start(self, *args, **kwargs):
        seen.append(spark.conf.get(SHUFFLE_PARTITIONS))
        raise RuntimeError("start failed")

    monkeypatch.setattr(DataStreamWriter, "start", failing_start)
    before = spark.conf.get(SHUFFLE_PARTITIONS)
    (tmp_path / "in").mkdir()
    with pytest.raises(RuntimeError, match="start failed"):
        run_stream(
            spark, str(tmp_path / "in"), workload, window=WINDOW,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
    assert seen == [str(spark.sparkContext.defaultParallelism)]
    assert spark.conf.get(SHUFFLE_PARTITIONS) == before


def test_streaming_rejects_mixed_windows(spark, tmp_path):
    wl = [
        Query(qid="a", elems=seq(Atom("R"), Kleene("T")), window=20.0, slide=20.0),
        Query(qid="b", elems=seq(Atom("P"), Kleene("T")), window=40.0, slide=40.0),
    ]
    with pytest.raises(ValueError):
        make_stateful_func(wl, "hamlet", 20.0)


class _StubGroupState:
    """The part of Spark's GroupState the stateful function uses."""

    def __init__(self):
        self.get = None

    @property
    def exists(self):
        return self.get is not None

    def update(self, row):
        self.get = row


def _non_kleene(qid="nk"):
    return Query(qid=qid, elems=seq(Atom("R"), Atom("T")), window=WINDOW, slide=WINDOW)


def _fresh_copy(func):
    """The function as a Spark Python worker gets it: a cloudpickle copy."""
    return cloudpickle.loads(cloudpickle.dumps(func))


def _stub_rows(pdf, wl, system, window=WINDOW, cloudpickled=False):
    """Spark-free: per key, one call per pane, the pickled state carried
    between calls, then the flush row. Returns the streamed rows, the
    in-process engine's rows, and the last key's pane count.
    ``cloudpickled``: every pane goes to a fresh cloudpickle copy of the
    function, so each state blob is read by another copy than wrote it."""
    func = make_stateful_func(wl, system, window)
    t_flush = (pdf["time"].max() // window + 2) * window
    got, want = [], []
    for gkey, grp in pdf.groupby("gkey"):
        state = _StubGroupState()
        panes = [pane for _, pane in grp.groupby(grp["time"] // PANE)]
        panes.append(grp.iloc[[-1]].assign(time=t_flush, etype=FLUSH_TYPE))
        for pane in panes:
            call = _fresh_copy(func) if cloudpickled else func
            got.extend(call((gkey,), iter([pane]), state))
        rr = run_system(events_from_pandas(grp, ATTR_COLS), wl, system)
        want += [
            (gkey, ws, qid, agg, val)
            for (qid, ws), aggs in rr.results.items()
            for agg, val in aggs.items()
        ]
    key = ["gkey", "window_start", "qid", "agg"]
    got = pd.concat([f for f in got if len(f)]).sort_values(key).reset_index(drop=True)
    want = pd.DataFrame(want, columns=OUT_COLS).sort_values(key).reset_index(drop=True)
    return got, want, len(panes)


@pytest.mark.parametrize(
    "system, cloudpickled",
    [pytest.param(s, False, id=s) for s in ("hamlet", "hamlet-static", "hamlet-nonshared")]
    + [pytest.param("hamlet", True, id="hamlet-cloudpickled")],
)
def test_stateful_func_equals_run_system(stream_pdf, workload, system, cloudpickled):
    """The streamed rows equal the in-process engine's."""
    wl = workload + [_non_kleene()]
    got, want, n_panes = _stub_rows(stream_pdf, wl, system, cloudpickled=cloudpickled)
    assert got["qid"].eq("nk").any() and n_panes >= 4
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("system", ["sharon", "mcep"])
def test_stateful_func_runs_baselines(stream_pdf, workload, system):
    """SHARON and MCEP are window executors like the others: on a COUNT(*)
    workload the streamed rows equal the in-process engine's."""
    got, want, _ = _stub_rows(stream_pdf, workload, system, cloudpickled=True)
    assert len(got)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("system", ["greta", "hamlet", "sharon", "mcep"])
def test_stateful_func_negative_times_equal_run_system(system):
    """Events before time 0: the streamed windows, keyed by
    ``int(t // window)``, are the batch engine's windows."""
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")), window=10.0, slide=10.0)
    pdf = pd.DataFrame(
        {
            "time": [-15.0, -5.0, -3.0, 1.0, 2.0],
            "etype": ["B", "A", "B", "A", "B"],
            "gkey": 0,
            **{c: 0.0 for c in ATTR_COLS},
        }
    )
    got, want, _ = _stub_rows(pdf, [q], system, window=10.0)
    assert set(want["window_start"]) == {-20.0, -10.0, 0.0}
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _global_names(blob: bytes) -> set:
    """The module and object names of every global a pickle refers to."""
    names = set()
    for op, arg, _ in pickletools.genops(blob):
        if op.name in ("GLOBAL", "INST"):
            names.update(arg.split(" "))
        elif isinstance(arg, str):  # STACK_GLOBAL's names are pushed as strings
            names.add(arg)
    return names


@pytest.mark.parametrize("system", ["greta", "hamlet"])
def test_state_blob_holds_no_query_definitions(stream_pdf, system):
    """The group state holds runtime state only: the executor plans are
    tokens that each copy of the function maps to its own objects, and
    queries, templates and kernel tables stay in the plans. Checked on a
    blob written by a cloudpickled copy while windows are open, for 50
    shared queries plus a non-Kleene one, and on a blob written while a
    burst that spans a pane boundary keeps Hamlet's shared graphlet open."""
    wl = workload1(50, kleene_type="T", window=WINDOW, slide=WINDOW) + [_non_kleene()]
    func = make_stateful_func(wl, system, WINDOW)
    grp = stream_pdf[stream_pdf["gkey"] == stream_pdf["gkey"].iloc[0]]
    state = _StubGroupState()
    for _, pane in grp.groupby(grp["time"] // PANE):
        list(_fresh_copy(func)((0,), iter([pane]), state))
    names = _global_names(state.get[0])
    # open windows' engines are in the blob
    assert {"greta": "repro.baselines", "hamlet": "repro.core.hamlet"}[system] in names
    assert not names & {"repro.core.queries", "repro.core.template", "_Kernel"}
    # A tumbling window is its own pane, so the operator's graphlets close
    # within a call; a sliding workload's engines have 10-s panes, and
    # their state is written the operator's way mid-graphlet
    wl = workload1(50, kleene_type="T", window=WINDOW, slide=PANE)
    plans = [plan for _, _, plan in window_executors(wl, system)]
    engines = [plan.new_engine() for plan in plans]
    for t in (1.0, *range(2, 10), *range(11, 19)):
        for eng in engines:
            eng.on_event(Event(float(t), "T" if t > 1 else "R", {}))
    if system == "hamlet":
        assert all(eng.graphlet for eng in engines)
    names = _global_names(_dump_state({"engines": {0: engines}}, _static_objects(plans)))
    assert not names & {"repro.core.queries", "repro.core.template", "_Kernel"}


def test_state_blob_holds_no_one_snapshot():
    """The constant ONE snapshot's count column belongs to the executor
    plan and never enters a state blob: written while a graphlet is open
    in every engine, after the start term has entered its run, the blob is
    the same when that column is tokened too, so no engine refers to it."""
    wl = [
        Query(qid="k", elems=seq(Kleene("T")), window=WINDOW, slide=PANE),
        Query(qid="rk", elems=seq(Atom("R"), Kleene("T")), window=WINDOW, slide=PANE),
    ]
    plans = [plan for _, _, plan in window_executors(wl, "hamlet")]
    assert [plan.one for plan in plans] == [(1, 0)]
    engines = [plan.new_engine() for plan in plans]
    for t in (1.0, *range(2, 10), *range(11, 19)):
        for eng in engines:
            eng.on_event(Event(float(t), "T" if t > 1 else "R", {}))
    assert all(eng.graphlet and eng.graphlet.g for eng in engines)
    st = {"engines": {0: engines}}
    static = _static_objects(plans)
    ones = {("one", i): plan.one for i, plan in enumerate(plans)}
    assert _dump_state(st, {**static, **ones}) == _dump_state(st, static)


def _bursty_events(seed: int, end: float) -> list:
    """A seeded stream over ``[0, end)``: single A and C events between
    bursts of 2-6 B events, each with an integer ``v`` in 0..9."""
    rng = random.Random(seed)
    evs, t = [], 0.0
    while True:
        types = ["B"] * rng.randint(2, 6) if rng.random() < 0.5 else [rng.choice("AC")]
        for etype in types:
            t += rng.uniform(0.2, 1.2)
            if t >= end:
                return evs
            evs.append(Event(t, etype, {"v": float(rng.randint(0, 9))}))


@pytest.mark.parametrize("mode", ["dynamic", "static", "nonshared"])
def test_reload_mid_graphlet_changes_nothing(mode):
    """Round-tripping an engine through the operator's state blob after
    every event, and going on from the reloaded copy, changes no exact
    count, result or counter. With 2-s panes of a 40-s window a pane
    boundary flushes a burst and leaves its graphlet open between events,
    so the shared modes reload mid-graphlet; a unary predicate and an edge
    predicate on the Kleene type give that graphlet event snapshots."""
    kw = dict(window=40.0, slide=2.0)
    plan = HamletPlan(
        [
            Query(qid="a", elems=seq(Atom("A"), Kleene("B")),
                  aggs=(COUNT_STAR, AggSpec("SUM", "B", "v"), AggSpec("MAX", "B", "v")), **kw),
            Query(qid="b", elems=seq(Atom("A"), Kleene("B")), where={"B": (Pred("v", "<", 7),)},
                  aggs=(COUNT_STAR, AggSpec("AVG", "B", "v")), **kw),
            Query(qid="c", elems=seq(Atom("C"), Kleene("B")), edge_pred=EdgePred("v", "<="),
                  aggs=(COUNT_STAR, AggSpec("COUNT_E", "B")), **kw),
            Query(qid="d", elems=seq(Kleene("B")), **kw),
        ],
        mode=mode,
    )
    static = _static_objects([plan])
    ref, eng = plan.new_engine(), plan.new_engine()
    snapshot_reloads = 0
    for e in _bursty_events(seed=5, end=40.0):
        ref.on_event(e)
        eng.on_event(e)
        snapshot_reloads += eng.graphlet is not None and len(eng.graphlet.snaps) > 1
        eng = _load_state(_dump_state({"engine": eng}, static), static)["engine"]
    assert eng.plan is plan
    ref.end_window()
    eng.end_window()
    assert eng.exact_counts() == ref.exact_counts()
    assert repr(eng.results()) == repr(ref.results())
    assert eng.m == ref.m
    assert (snapshot_reloads > 0) == (mode != "nonshared"), snapshot_reloads


@pytest.mark.parametrize("system", ["greta", "hamlet"])
def test_state_blob_does_not_grow_with_closed_windows(system):
    """The same events in every 10-s tumbling window, one call per window:
    the blob after 50 closed windows is no larger than after 5."""
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")), window=10.0, slide=10.0)
    func = make_stateful_func([q], system, 10.0)
    state = _StubGroupState()
    sizes = {}
    for w in range(51):
        pane = pd.DataFrame(
            {
                "time": [10.0 * w + 1, 10.0 * w + 2, 10.0 * w + 3],
                "etype": ["A", "B", "B"],
                "gkey": 0,
                **{c: 0.0 for c in ATTR_COLS},
            }
        )
        rows = pd.concat(list(func((0,), iter([pane]), state)))
        # this call closes window w - 1; windows 0 .. w - 1 are closed
        assert sorted(rows["window_start"].unique()) == ([10.0 * (w - 1)] if w else [])
        sizes[w] = len(state.get[0])
    assert sizes[50] <= sizes[5]


@pytest.mark.parametrize("system", ["greta", "hamlet", "hamlet-static", "hamlet-nonshared"])
def test_event_just_before_window_end_counts(system):
    """Window instances are half-open, [start, start + window): an event at
    60 - 5e-13 belongs to the 60-s window 0, in the batch engine and in the
    streaming operator (which keys it by ``int(t // window)``) alike."""
    q = Query(qid="q", elems=seq(Atom("A"), Kleene("B")), window=60.0, slide=60.0)
    pdf = pd.DataFrame(
        {
            "time": [1.0, 2.0, 60.0 - 5e-13, 61.0],
            "etype": ["A", "B", "B", "B"],
            "gkey": 0,
            **{c: 0.0 for c in ATTR_COLS},
        }
    )
    events = events_from_pandas(pdf, ATTR_COLS)
    want = brute_results([e for e in events if e.time < 60.0], q)["COUNT(*)"]
    assert want == 3.0
    batch = run_system(events, [q], system).results
    assert batch[("q", 0.0)]["COUNT(*)"] == want
    func = make_stateful_func([q], system, 60.0)
    state = _StubGroupState()
    flush = pdf.iloc[[-1]].assign(time=180.0, etype=FLUSH_TYPE)
    rows = pd.concat([f for pane in (pdf, flush) for f in func((0,), iter([pane]), state)])
    stream = rows.set_index(["window_start", "qid", "agg"])["value"]
    assert stream[(0.0, "q", "COUNT(*)")] == want
    assert stream[(60.0, "q", "COUNT(*)")] == batch[("q", 60.0)]["COUNT(*)"] == 0.0


_BLOB_SCRIPT = """
import hashlib
from repro.core.workloads import workload1
from repro.sparkrt.streaming import make_stateful_func
from repro.streams import nyc_taxi_stream

class State:
    get = None
    exists = property(lambda self: self.get is not None)
    def update(self, row):
        self.get = row

pdf = nyc_taxi_stream(minutes=57 / 60, events_per_min=200, n_groups=4, seed=1)
wl = workload1(50, kleene_type="T", prefixes=("R", "P", "D", "C"), window=240.0, slide=240.0)
for system in ("greta", "hamlet", "hamlet-static", "hamlet-nonshared"):
    func = make_stateful_func(wl, system, 240.0)
    for gkey, grp in pdf.groupby("gkey"):
        state, half = State(), len(grp) // 2
        for part in (grp.iloc[:half], grp.iloc[half:]):
            list(func((gkey,), iter([part]), state))
            print(system, gkey, len(state.get[0]), hashlib.sha256(state.get[0]).hexdigest())
"""


def test_state_blobs_do_not_depend_on_the_hash_seed():
    """perfbench's streamed minute (nyc-shared, seed 1), each key's events
    in two calls: the state blobs of GRETA and the three Hamlet systems are
    byte-identical under two string hash seeds. The engines' per-type dicts
    are built in sorted type order, and a graphlet pickles its sharer set
    sorted."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outs = []
    for seed in ("0", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", _BLOB_SCRIPT], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.splitlines())
    assert len(outs[0]) == 4 * 4 * 2
    assert outs[0] == outs[1]
