"""Stream generators: determinism, schema, rates, burstiness."""
import numpy as np
import pandas as pd
import pytest

from repro.streams import (
    ATTR_COLS,
    bursty_stream,
    group_events,
    nyc_taxi_stream,
    ridesharing_stream,
    smart_home_stream,
    stock_stream,
)

GENS = {
    "ridesharing": (ridesharing_stream, "T"),
    "nyc": (nyc_taxi_stream, "T"),
    "smart_home": (smart_home_stream, "M"),
    "stock": (stock_stream, "T"),
}


@pytest.mark.parametrize("name", sorted(GENS))
def test_schema_and_rate(name):
    gen, kleene = GENS[name]
    pdf = gen(minutes=1.0, events_per_min=200)
    assert list(pdf.columns) == ["time", "etype", "gkey", "v", "w"]
    assert abs(len(pdf) - 200) <= pdf["gkey"].nunique()  # multinomial + min-1
    assert (pdf[kleene == pdf["etype"]].shape[0]) > 0


@pytest.mark.parametrize("name", sorted(GENS))
def test_determinism(name):
    gen, _ = GENS[name]
    a = gen(minutes=1.0, events_per_min=150)
    b = gen(minutes=1.0, events_per_min=150)
    pd.testing.assert_frame_equal(a, b)


def test_different_seeds_differ():
    a = ridesharing_stream(minutes=1.0, events_per_min=150, seed=1)
    b = ridesharing_stream(minutes=1.0, events_per_min=150, seed=2)
    assert not a["etype"].equals(b["etype"])


def test_times_sorted_globally_and_increasing_per_group():
    pdf = ridesharing_stream(minutes=1.0, events_per_min=300, n_groups=5)
    assert (pdf["time"].diff().dropna() >= 0).all()
    for _, sub in pdf.groupby("gkey"):
        assert (sub["time"].diff().dropna() > 0).all()


def test_burst_cap_respected():
    pdf = bursty_stream(
        minutes=1.0, events_per_min=400, n_groups=2, kleene_type="T",
        other_types=["A", "B"], p_kleene=0.5, burst_mean=20.0, burst_cap=4, seed=0,
    )
    for _, sub in pdf.groupby("gkey"):
        runs = (sub["etype"] != sub["etype"].shift()).cumsum()
        run_lens = sub.groupby(runs)["etype"].agg(["first", "size"])
        t_runs = run_lens[run_lens["first"] == "T"]["size"]
        assert (t_runs <= 4).all()


def test_burst_mean_scales_run_length():
    def mean_run(bm):
        pdf = bursty_stream(
            minutes=1.0, events_per_min=600, n_groups=1, kleene_type="T",
            other_types=["A"], p_kleene=0.4, burst_mean=bm, seed=3,
        )
        runs = (pdf["etype"] != pdf["etype"].shift()).cumsum()
        rl = pdf.groupby(runs)["etype"].agg(["first", "size"])
        return rl[rl["first"] == "T"]["size"].mean()

    assert mean_run(12.0) > 2 * mean_run(1.0)


def test_group_events_partitions_and_orders():
    pdf = ridesharing_stream(minutes=1.0, events_per_min=100, n_groups=4)
    by_g = group_events(pdf)
    assert set(by_g) == set(pdf["gkey"].unique())
    total = sum(len(v) for v in by_g.values())
    assert total == len(pdf)
    for evs in by_g.values():
        times = [e.time for e in evs]
        assert times == sorted(times)
        assert all(set(e.attrs) == set(ATTR_COLS) for e in evs)


def test_attr_ranges_per_dataset():
    stock = stock_stream(minutes=1.0, events_per_min=100)
    assert stock["v"].between(10.0, 500.0).all()
    rides = ridesharing_stream(minutes=1.0, events_per_min=100)
    assert rides["v"].between(0.0, 30.0).all()


def test_ridesharing_has_20_event_types():
    pdf = ridesharing_stream(minutes=2.0, events_per_min=2000, n_groups=2, seed=9)
    assert pdf["etype"].nunique() == 20


def _row_at_a_time(pdf, attr_cols):
    """The row-at-a-time conversion ``group_events`` replaced: per group,
    a stable time sort, then one dict per row from numpy scalars."""
    from repro.core.events import Event

    out = {}
    for g, sub in pdf.groupby("gkey", sort=True):
        sub = sub.sort_values("time", kind="mergesort")
        cols = [c for c in attr_cols if c in sub.columns]
        times, etypes = sub["time"].to_numpy(), sub["etype"].to_numpy()
        arrays = {c: sub[c].to_numpy() for c in cols}
        out[int(g)] = [
            Event(times[i], etypes[i], {c: float(arrays[c][i]) for c in cols})
            for i in range(len(sub))
        ]
    return out


def test_group_events_equals_row_at_a_time_conversion():
    """Unsorted input with equal times, an int attribute column and a NaN:
    the events equal the row-at-a-time conversion's, field for field and
    type for type (float time, str type, float attributes)."""
    rng = np.random.default_rng(4)
    n = 300
    pdf = pd.DataFrame({
        "time": rng.integers(0, 60, n).astype(float),  # many equal times
        "etype": rng.choice(list("ABCT"), n),
        "gkey": rng.integers(0, 5, n),
        "v": rng.integers(-3, 50, n),  # an int column
        "w": rng.random(n),
    })
    pdf.loc[7, "w"] = np.nan
    pdf = pdf.astype({"etype": object})
    assert pdf["v"].dtype.kind == "i" and not pdf["time"].is_monotonic_increasing
    got, want = group_events(pdf), _row_at_a_time(pdf, ATTR_COLS)
    assert list(got) == list(want)
    nan_seen = False
    for g in want:
        assert len(got[g]) == len(want[g])
        for a, b in zip(got[g], want[g]):
            assert type(a.time) is type(b.time) is float and a.time == b.time
            assert type(a.etype) is type(b.etype) is str and a.etype == b.etype
            assert list(a.attrs) == list(b.attrs) == list(ATTR_COLS)
            for c in ATTR_COLS:
                x, y = a.attrs[c], b.attrs[c]
                assert type(x) is type(y) is float
                assert x == y or (np.isnan(x) and np.isnan(y))
                nan_seen |= bool(np.isnan(x))
    assert nan_seen
    assert group_events(pdf.iloc[:0]) == {}
