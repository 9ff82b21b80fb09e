"""The DuckDB recursive-CTE trend-count oracle itself, validated against
brute force (two independent implementations must agree before the SQL
is trusted to check Spark results)."""
import random

import duckdb
import pandas as pd
import pytest

from repro.core.brute import brute_results
from repro.core.engine import run_system
from repro.core.events import Event
from repro.core.queries import Atom, Kleene, Pred, Query, seq
from repro.oracle_trends import trend_count_sql


def _stream(seed, n=40, groups=3, types="RTDX"):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(
            dict(
                time=i + rng.random() * 0.3,
                etype=rng.choice(types),
                gkey=rng.randrange(groups),
                v=float(rng.randint(0, 9)),
                w=0.0,
            )
        )
    return pd.DataFrame(rows)


def _brute_per_group_window(pdf, q, window):
    out = {}
    for (g, w), sub in pdf.assign(win=(pdf.time // window).astype(int)).groupby(["gkey", "win"]):
        evs = [Event(r.time, r.etype, {"v": r.v, "w": r.w}) for r in sub.itertuples()]
        cnt = brute_results(evs, q)["COUNT(*)"]
        if cnt > 0:
            out[(g, w * window)] = cnt
    return out


@pytest.mark.parametrize("seed", range(8))
def test_oracle_no_suffix(seed):
    pdf = _stream(seed)
    q = Query(qid="q", elems=seq(Atom("R"), Kleene("T")), window=15.0, slide=15.0)
    sql = trend_count_sql(prefix_type="R", kleene_type="T", window=15.0)
    got = duckdb.connect().execute(sql.replace("events", "pdf")).fetchdf()
    want = _brute_per_group_window(pdf, q, 15.0)
    got_map = {(int(r.gkey), r.window_start): r.value for r in got.itertuples()}
    assert got_map == want


@pytest.mark.parametrize("seed", range(8))
def test_oracle_with_suffix(seed):
    pdf = _stream(seed + 50)
    q = Query(qid="q", elems=seq(Atom("R"), Kleene("T"), Atom("D")), window=15.0, slide=15.0)
    sql = trend_count_sql(prefix_type="R", kleene_type="T", suffix_type="D", window=15.0)
    got = duckdb.connect().execute(sql.replace("events", "pdf")).fetchdf()
    want = _brute_per_group_window(pdf, q, 15.0)
    got_map = {(int(r.gkey), r.window_start): r.value for r in got.itertuples()}
    assert got_map == want


@pytest.mark.parametrize("seed", range(5))
def test_oracle_with_predicates(seed):
    pdf = _stream(seed + 100)
    where = {"T": (Pred("v", ">=", 4),), "R": (Pred("v", "<=", 7),)}
    q = Query(qid="q", elems=seq(Atom("R"), Kleene("T")), where=where, window=15.0, slide=15.0)
    sql = trend_count_sql(prefix_type="R", kleene_type="T", window=15.0, where=where)
    got = duckdb.connect().execute(sql.replace("events", "pdf")).fetchdf()
    want = _brute_per_group_window(pdf, q, 15.0)
    got_map = {(int(r.gkey), r.window_start): r.value for r in got.itertuples()}
    assert got_map == want


def test_oracle_hugeint_counts():
    """40 Kleene events → counts near 2^39 survive the HUGEINT DP."""
    rows = [dict(time=0.0, etype="R", gkey=0, v=0.0, w=0.0)]
    rows += [dict(time=1.0 + i, etype="T", gkey=0, v=0.0, w=0.0) for i in range(40)]
    pdf = pd.DataFrame(rows)
    sql = trend_count_sql(prefix_type="R", kleene_type="T", window=100.0)
    got = duckdb.connect().execute(sql.replace("events", "pdf")).fetchdf()
    assert got["value"].iloc[0] == float(2**40 - 1)


@pytest.mark.parametrize("suffix", [None, "S"])
def test_oracle_equal_timestamps_match_brute(suffix):
    """R(0), T(1), T(1) [, S(2)]: the two T's are not ordered, so brute
    force counts 2 trends."""
    probe = ((0.0, "R"), (1.0, "T"), (1.0, "T")) + (((2.0, suffix),) if suffix else ())
    pdf = pd.DataFrame([dict(time=t, etype=et, gkey=0, v=0.0, w=0.0) for t, et in probe])
    q = Query(qid="q", elems=seq(Atom("R"), Kleene("T"), *([Atom(suffix)] if suffix else [])),
              window=10.0, slide=10.0)
    want = _brute_per_group_window(pdf, q, 10.0)
    assert want == {(0, 0.0): 2.0}
    sql = trend_count_sql(prefix_type="R", kleene_type="T", suffix_type=suffix, window=10.0)
    got = duckdb.connect().execute(sql.replace("events", "pdf")).fetchdf()
    assert {(int(r.gkey), r.window_start): r.value for r in got.itertuples()} == want


@pytest.mark.parametrize("suffix", [None, "S"])
def test_equal_timestamps_seeded_match_brute(suffix):
    """60 seeded streams of 12 events at whole seconds 0-5, so most Kleene
    events share their time with another: GRETA, SHARON, MCEP and the
    oracle (one group per seed) count what brute force counts."""
    types = "RTS" if suffix else "RT"
    rows = []
    for seed in range(60):
        rng = random.Random(seed)
        for t in sorted(rng.randint(0, 5) for _ in range(12)):
            rows.append(dict(time=float(t), etype=rng.choice(types), gkey=seed, v=0.0, w=0.0))
    pdf = pd.DataFrame(rows)
    q = Query(qid="q", elems=seq(Atom("R"), Kleene("T"), *([Atom(suffix)] if suffix else [])),
              window=10.0, slide=10.0)
    sql = trend_count_sql(prefix_type="R", kleene_type="T", suffix_type=suffix, window=10.0)
    got_sql = duckdb.connect().execute(sql.replace("events", "pdf")).fetchdf()
    oracle = {int(r.gkey): r.value for r in got_sql.itertuples()}
    for seed, sub in pdf.groupby("gkey"):
        evs = [Event(r.time, r.etype, {"v": r.v, "w": r.w}) for r in sub.itertuples()]
        got = {s: run_system(evs, [q], s).results[("q", 0.0)]["COUNT(*)"] for s in ("greta", "sharon", "mcep")}
        got["oracle"] = oracle.get(seed, 0.0)  # the SQL has no row for a count of 0
        assert got == dict.fromkeys(got, brute_results(evs, q)["COUNT(*)"]), seed
