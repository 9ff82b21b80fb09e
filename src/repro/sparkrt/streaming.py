"""Structured Streaming runtime: Hamlet as a stateful operator.

This is the reproduction-band mapping: *adaptive shared trend
aggregation as a Structured Streaming stateful operator with dynamic
sharing plan selection per micro-batch*. A file source delivers one
**pane** per micro-batch (``maxFilesPerTrigger=1``); the stream is keyed
by the group attribute and processed with ``applyInPandasWithState``.
The group state carries the per-window engines' runtime state, for any
system (their shared executor plans stay in the function's closure); in
every micro-batch Hamlet's dynamic optimizer re-decides the sharing plan for
each burst (``choose_plan``; a set whose decision no burst can change
keeps its plan's), so plans adapt micro-batch by micro-batch exactly as
the paper's optimizer adapts per burst. Completed windows
are emitted in update mode; a far-future flush sentinel closes the final
windows (the offline stand-in for a watermark).

The state store has one instance per shuffle partition, and every
micro-batch opens, updates and commits each of them. ``run_stream``
therefore starts the query with one partition per core of the session
(``defaultParallelism``), whatever the session's
``spark.sql.shuffle.partitions`` says; the checkpoint pins that count for
the life of the stream (DESIGN.md §3).
"""
from __future__ import annotations

import io
import math
import os
import pickle
from typing import Sequence

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.streaming.state import GroupState, GroupStateTimeout
from pyspark.sql.types import (
    BinaryType,
    DoubleType,
    LongType,
    StringType,
    StructField,
    StructType,
)

from ..core.engine import window_executors
from ..core.events import Event, events_from_pandas
from ..core.queries import Query
from ..streams import ATTR_COLS
from .batch import OUT_COLS, OUT_SCHEMA, result_frame

FLUSH_TYPE = "__flush__"

EVENT_SCHEMA = StructType(
    [
        StructField("time", DoubleType()),
        StructField("etype", StringType()),
        StructField("gkey", LongType()),
    ]
    + [StructField(c, DoubleType()) for c in ATTR_COLS]
)
STATE_SCHEMA = StructType([StructField("blob", BinaryType())])


def _static_objects(plans) -> dict:
    """Token -> object for each executor plan: everything an engine
    references that is the same for every key and every window (the
    queries and templates an engine reads, it reads through its plan)."""
    return {("plan", i): plan for i, plan in enumerate(plans)}


def _dump_state(st: dict, static: dict) -> bytes:
    """Pickle ``st`` with each static object replaced by its token."""
    # ids are only valid in this process, so the lookup is made per call
    ids = {id(obj): tok for tok, obj in static.items()}
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf)
    pickler.persistent_id = lambda obj: ids.get(id(obj))
    pickler.dump(st)
    return buf.getvalue()


def _load_state(blob: bytes, static: dict) -> dict:
    """Unpickle a ``_dump_state`` blob, re-attaching ``static``'s objects."""
    unpickler = pickle.Unpickler(io.BytesIO(blob))
    unpickler.persistent_load = static.__getitem__
    return unpickler.load()


def make_stateful_func(workload: Sequence[Query], system: str, window: float):
    """Build the applyInPandasWithState function.

    Tumbling windows only (all queries share window==slide==``window``).
    The group state carries *live* engines, so graphlets span micro-batches
    and the dynamic optimizer re-selects its sharing plan for every burst
    of every micro-batch. Windows whose end time has passed are finalized
    and their aggregates emitted; the state then keeps only the last
    emitted window id, and drops any later event at or before it.

    The state blob holds the engines' runtime state only: each executor
    plan an engine references is written as a small token and re-attached,
    on reading, to this closure's own copy. A baseline's engine holds its
    window's buffered events, and a Hamlet engine its columns, open
    graphlet and burst.
    """
    workload = list(workload)
    for q in workload:
        if q.window != window or q.slide != window:
            raise ValueError("streaming runtime supports one tumbling window size")
    plans = [plan for _, _, plan in window_executors(workload, system)]
    # Keyed by token, not id(): the table travels inside the closure, which
    # Spark unpickles again in every Python worker.
    static = _static_objects(plans)

    def func(key, pdf_iter, state: GroupState):
        gkey = int(key[0])
        if state.exists:
            st = _load_state(state.get[0], static)
        else:
            st = {"engines": {}, "emitted": -math.inf, "max_t": -math.inf}
        events: list[Event] = []
        for pdf in pdf_iter:
            st["max_t"] = max(st["max_t"], float(pdf["time"].max()))
            events += events_from_pandas(pdf[pdf["etype"] != FLUSH_TYPE], ATTR_COLS)
        events.sort(key=lambda e: e.time)
        for e in events:
            wid = int(e.time // window)
            if wid <= st["emitted"]:
                continue  # late event of an emitted window — dropped
            if wid not in st["engines"]:
                st["engines"][wid] = [plan.new_engine() for plan in plans]
            for eng in st["engines"][wid]:
                eng.on_event(e)
        results = {}
        for wid in sorted(st["engines"]):
            if (wid + 1) * window <= st["max_t"]:
                ws = float(wid * window)
                for eng in st["engines"].pop(wid):
                    eng.end_window()
                    results.update({(qid, ws): aggs for qid, aggs in eng.results().items()})
                st["emitted"] = wid
        state.update((_dump_state(st, static),))
        yield result_frame(gkey, results)

    return func


def write_pane_files(pdf: pd.DataFrame, pane: float, out_dir: str, window: float) -> int:
    """Split a stream frame into one JSON-lines file per pane (the
    micro-batch unit) plus a flush sentinel pane; returns the file count."""
    os.makedirs(out_dir, exist_ok=True)
    pdf = pdf.sort_values("time", kind="mergesort")
    pane_ids = (pdf["time"] // pane).astype(int)
    n = 0
    # FileStreamSource drains pending files oldest-modification-first; give
    # the panes strictly increasing mtimes so micro-batches arrive in pane
    # order (the engine state assumes in-order event time across batches).
    base_mtime = 1_600_000_000
    for pid in sorted(pane_ids.unique()):
        chunk = pdf[pane_ids == pid]
        path = os.path.join(out_dir, f"{n:05d}.json")
        chunk.to_json(path, orient="records", lines=True)
        os.utime(path, (base_mtime + n, base_mtime + n))
        n += 1
    t_flush = (math.floor(pdf["time"].max() / window) + 2) * window
    flush = pd.DataFrame(
        {
            "time": [t_flush] * pdf["gkey"].nunique(),
            "etype": [FLUSH_TYPE] * pdf["gkey"].nunique(),
            "gkey": sorted(pdf["gkey"].unique()),
            **{c: 0.0 for c in ATTR_COLS},
        }
    )
    path = os.path.join(out_dir, f"{n:05d}.json")
    flush.to_json(path, orient="records", lines=True)
    os.utime(path, (base_mtime + n, base_mtime + n))
    return n + 1


def run_stream(
    spark: SparkSession,
    in_dir: str,
    workload: Sequence[Query],
    *,
    system: str = "hamlet",
    window: float,
    checkpoint_dir: str,
) -> pd.DataFrame:
    """Run the streaming query over the pane files; returns collected rows."""
    src = (
        spark.readStream.schema(EVENT_SCHEMA)
        .option("maxFilesPerTrigger", 1)
        .json(in_dir)
    )
    out = src.groupBy("gkey").applyInPandasWithState(
        make_stateful_func(workload, system, window),
        OUT_SCHEMA,
        STATE_SCHEMA,
        "update",
        GroupStateTimeout.NoTimeout,
    )
    collected: list[pd.DataFrame] = []

    def sink(batch_df, _bid):
        pdf = batch_df.toPandas()
        if len(pdf):
            collected.append(pdf)

    # The query copies the session conf when it starts and its first
    # checkpoint pins the state-partition count, so the count is set on the
    # caller's session (its listeners must see the query) for the start only.
    conf_key = "spark.sql.shuffle.partitions"
    prior = spark.conf.get(conf_key)
    spark.conf.set(conf_key, spark.sparkContext.defaultParallelism)
    try:
        q = (
            out.writeStream.foreachBatch(sink)
            .option("checkpointLocation", checkpoint_dir)
            .outputMode("update")
            .start()
        )
    finally:
        spark.conf.set(conf_key, prior)
    try:
        q.processAllAvailable()
    finally:
        q.stop()
    if not collected:
        return pd.DataFrame(columns=OUT_COLS)
    return pd.concat(collected, ignore_index=True)
