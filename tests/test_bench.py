"""Experiment harness smoke tests: every table function yields complete,
well-formed rows at the small scale."""
import pytest

from repro.bench.experiments import fig9_fig10, fig11, fig12_fig13
from repro.bench.harness import to_markdown

EXPECTED_COLS = {
    "table", "panel", "x_name", "x", "system",
    "latency_ms", "throughput_eps", "mem_kb", "snapshots",
    "shared_burst_pct", "modelled",
}


@pytest.fixture(scope="module")
def rows9():
    return fig9_fig10("small")


def test_fig9_rows_have_all_systems(rows9):
    assert {r["system"] for r in rows9} == {"hamlet", "greta", "mcep", "sharon"}
    for r in rows9:
        assert EXPECTED_COLS <= set(r)
        assert r["latency_ms"] >= 0 and r["throughput_eps"] >= 0


def test_fig9_sharon_is_slowest(rows9):
    by_sys = {r["system"]: r for r in rows9 if r["panel"].startswith("a/c")}
    assert by_sys["sharon"]["latency_ms"] > by_sys["hamlet"]["latency_ms"]
    assert by_sys["sharon"]["mem_kb"] > by_sys["hamlet"]["mem_kb"]


def test_fig11_rows():
    rows = fig11("small")
    assert {r["system"] for r in rows} == {"hamlet", "greta"}
    panels = {r["panel"] for r in rows}
    assert any("NYC" in p for p in panels) and any("SH" in p for p in panels)


def test_fig12_rows_dynamic_wins():
    rows = fig12_fig13("small")
    assert {r["system"] for r in rows} == {"dynamic", "static", "nonshared"}
    dyn = [r for r in rows if r["system"] == "dynamic"]
    sta = [r for r in rows if r["system"] == "static"]
    # the headline claims, on deterministic counters (wall-clock is asserted
    # in the full-scale EXPERIMENTS.md run, not in CI): fewer snapshots and
    # less memory for dynamic sharing
    assert sum(r["snapshots"] for r in dyn) < sum(r["snapshots"] for r in sta)
    assert sum(r["mem_kb"] for r in dyn) <= sum(r["mem_kb"] for r in sta)
    for r in sta:
        assert r["shared_burst_pct"] == 100.0


def test_to_markdown_renders():
    md = to_markdown(
        [{"a": 1, "b": 2.5}, {"a": 3, "b": 10000.0}], columns=["a", "b"]
    )
    lines = md.splitlines()
    assert lines[0] == "| a | b |"
    assert len(lines) == 4
