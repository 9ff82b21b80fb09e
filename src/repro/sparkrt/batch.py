"""Batch Spark runtime: Hamlet as a grouped-map DataFrame operator.

The stream is partitioned by the group-by key (Hamlet partitions by
grouping attributes, §2.2); each partition runs the full windowed
multi-query engine (`repro.core.engine.run_system`) and emits one row
per (group, window, query, aggregate). Catalyst plans the shuffle; the
engine is the custom physical operator expressed as a
DataFrame→DataFrame transformation (see DESIGN.md §3 — a true JVM
operator is out of scope for a Python reproduction).
"""
from __future__ import annotations

from typing import Sequence

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..core.engine import run_system
from ..core.events import events_from_pandas
from ..core.queries import Query
from ..streams import ATTR_COLS

# the result rows of both Spark runtimes
OUT_SCHEMA = "gkey long, window_start double, qid string, agg string, value double"
OUT_COLS = [c.split()[0] for c in OUT_SCHEMA.split(", ")]


def result_frame(gkey: int, results: dict) -> pd.DataFrame:
    """Group ``gkey``'s ``{(qid, window_start): {agg: value}}`` results as
    one ``OUT_SCHEMA`` row per window, query and aggregate."""
    rows = [
        (gkey, float(ws), qid, agg, float(val))
        for (qid, ws), aggs in results.items()
        for agg, val in aggs.items()
    ]
    return pd.DataFrame(rows, columns=OUT_COLS)


def run_workload_spark(
    spark: SparkSession,
    events_df: DataFrame,
    workload: Sequence[Query],
    *,
    system: str = "hamlet",
) -> DataFrame:
    """Evaluate the workload per group partition; returns the result frame.

    ``events_df`` must have columns ``time, etype, gkey`` plus ``ATTR_COLS``.
    """
    workload = list(workload)

    def _run_group(pdf: pd.DataFrame) -> pd.DataFrame:
        gkey = int(pdf["gkey"].iloc[0])
        events = events_from_pandas(pdf, ATTR_COLS)
        return result_frame(gkey, run_system(events, workload, system).results)

    # an explicit count, which AQE does not coalesce: one task per core
    return (
        events_df.repartition(spark.sparkContext.defaultParallelism, "gkey")
        .groupBy("gkey")
        .applyInPandas(_run_group, OUT_SCHEMA)
    )


def count_star_df(results_df: DataFrame, qid: str) -> DataFrame:
    """Project one query's COUNT(*) series — the shape the DuckDB trend
    oracle produces (gkey, window_start, value), zero rows dropped."""
    from pyspark.sql.functions import col

    # NB: results_df.agg would resolve to DataFrame.agg (the method), not
    # the column — use col() for the "agg" column.
    return (
        results_df.where(
            (col("qid") == qid) & (col("agg") == "COUNT(*)") & (col("value") > 0)
        )
        .select("gkey", "window_start", "value")
    )
