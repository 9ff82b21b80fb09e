"""Spark batch runtime: the Hamlet grouped-map operator over a real
shuffle, validated with the DuckDB recursive-CTE trend oracle via
``repro.oracle.assert_equivalent`` (independent engine + algorithm)."""
import pytest

from repro.core.queries import Atom, Kleene, Pred, Query, seq
from repro.core.workloads import workload1
from repro.oracle import assert_equivalent
from repro.oracle_trends import trend_count_sql
from repro.sparkrt.batch import count_star_df, run_workload_spark
from repro.streams import ridesharing_stream, to_spark

WINDOW = 30.0


@pytest.fixture(scope="module")
def stream_pdf():
    return ridesharing_stream(
        minutes=1.0, events_per_min=240, n_groups=6, burst_mean=3.0,
        p_kleene=0.25, burst_cap=6, seed=11,
    )


@pytest.fixture(scope="module")
def results_sdf(spark, stream_pdf):
    wl = [
        Query(qid="qa", elems=seq(Atom("R"), Kleene("T")), window=WINDOW, slide=WINDOW),
        Query(qid="qb", elems=seq(Atom("P"), Kleene("T")), window=WINDOW, slide=WINDOW),
        Query(
            qid="qc",
            elems=seq(Atom("R"), Kleene("T"), Atom("D")),
            where={"T": (Pred("v", ">=", 10.0),)},
            window=WINDOW,
            slide=WINDOW,
        ),
    ]
    sdf = run_workload_spark(spark, to_spark(spark, stream_pdf), wl, system="hamlet")
    sdf.cache()
    return sdf


def test_oracle_prefix_query(results_sdf, stream_pdf):
    sql = trend_count_sql(prefix_type="R", kleene_type="T", window=WINDOW)
    assert_equivalent(count_star_df(results_sdf, "qa"), sql, events=stream_pdf)


def test_oracle_second_prefix_query(results_sdf, stream_pdf):
    sql = trend_count_sql(prefix_type="P", kleene_type="T", window=WINDOW)
    assert_equivalent(count_star_df(results_sdf, "qb"), sql, events=stream_pdf)


def test_oracle_suffix_query_with_predicate(results_sdf, stream_pdf):
    where = {"T": (Pred("v", ">=", 10.0),)}
    sql = trend_count_sql(
        prefix_type="R", kleene_type="T", suffix_type="D", window=WINDOW, where=where
    )
    assert_equivalent(count_star_df(results_sdf, "qc"), sql, events=stream_pdf)


def test_spark_systems_agree(spark, stream_pdf):
    wl = workload1(4, kleene_type="T", window=WINDOW, slide=WINDOW)
    sdf = to_spark(spark, stream_pdf)
    a = run_workload_spark(spark, sdf, wl, system="hamlet").toPandas()
    b = run_workload_spark(spark, sdf, wl, system="greta").toPandas()
    key = ["gkey", "window_start", "qid", "agg"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert a.equals(b)


def test_spark_result_schema(results_sdf):
    assert [f.name for f in results_sdf.schema.fields] == [
        "gkey", "window_start", "qid", "agg", "value",
    ]


def test_partition_count_matches_groups(spark, results_sdf, stream_pdf):
    got_groups = {r.gkey for r in results_sdf.select("gkey").distinct().collect()}
    assert got_groups <= set(stream_pdf["gkey"].unique())
    assert len(got_groups) >= 4
    # one task per core, whatever the session's shuffle-partition count:
    # AQE would coalesce a repartition without an explicit count into one
    assert results_sdf.rdd.getNumPartitions() == spark.sparkContext.defaultParallelism
