"""Structured Streaming stateful operator: one pane per micro-batch,
live Hamlet engine state across batches, dynamic sharing per burst —
output must equal the batch engine's."""
import pandas as pd
import pytest

from repro.core.brute import brute_results
from repro.core.engine import run_system
from repro.core.events import events_from_pandas
from repro.core.queries import Atom, Kleene, Query, seq
from repro.core.workloads import workload1
from repro.sparkrt.batch import run_workload_spark
from repro.sparkrt.streaming import (
    FLUSH_TYPE,
    OUT_COLS,
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


@pytest.fixture(scope="module")
def streamed(spark, stream_pdf, workload, tmp_path_factory):
    base = tmp_path_factory.mktemp("stream")
    in_dir, ckpt = str(base / "in"), str(base / "ckpt")
    n_files = write_pane_files(stream_pdf, PANE, in_dir, WINDOW)
    assert n_files >= 3  # several micro-batches, not one big batch
    out = run_stream(
        spark, in_dir, workload, system="hamlet", window=WINDOW, checkpoint_dir=ckpt
    )
    return out


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


@pytest.mark.parametrize("system", ["hamlet", "hamlet-static", "hamlet-nonshared"])
def test_stateful_func_equals_run_system(stream_pdf, workload, system):
    """Spark-free: one call per pane, the pickled state carried between
    calls, then the flush row; rows must equal the in-process engine's."""
    wl = workload + [Query(qid="nk", elems=seq(Atom("R"), Atom("T")), window=WINDOW, slide=WINDOW)]
    func = make_stateful_func(wl, system, WINDOW)
    t_flush = (stream_pdf["time"].max() // WINDOW + 2) * WINDOW
    got, want = [], []
    for gkey, grp in stream_pdf.groupby("gkey"):
        state = _StubGroupState()
        panes = [pane for _, pane in grp.groupby(grp["time"] // PANE)]
        panes.append(grp.iloc[[-1]].assign(time=t_flush, etype=FLUSH_TYPE))
        for pane in panes:
            got.extend(func((gkey,), iter([pane]), state))
        rr = run_system(events_from_pandas(grp, ATTR_COLS), wl, system)
        want += [
            (gkey, ws, qid, agg, val)
            for (qid, ws), aggs in rr.results.items()
            for agg, val in aggs.items()
        ]
    key = ["gkey", "window_start", "qid", "agg"]
    got = pd.concat([f for f in got if len(f)]).sort_values(key).reset_index(drop=True)
    want = pd.DataFrame(want, columns=OUT_COLS).sort_values(key).reset_index(drop=True)
    assert got["qid"].eq("nk").any() and len(panes) >= 4
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


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
