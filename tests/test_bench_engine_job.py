"""jobs/bench_engine.py: the opcode count is a deterministic measure, and
``--check`` compares every counter with a label's."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.engine import run_system
from repro.core.workloads import workload1
from repro.streams import group_events, nyc_taxi_stream


def _job():
    path = Path(__file__).resolve().parents[1] / "jobs" / "bench_engine.py"
    spec = importlib.util.spec_from_file_location("bench_engine", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


def test_opcode_count_repeats():
    """Two counts of one tiny run agree. A first, untraced run builds the
    queries' memoized templates, as the job's timed passes do."""
    job = _job()
    events = next(iter(group_events(nyc_taxi_stream(minutes=1.0, events_per_min=60)).values()))
    wl = workload1(4, prefixes=("R", "P", "D", "C"), window=60.0, slide=60.0)
    run_system(events, wl, "hamlet")
    before = sys.gettrace()
    counts = [job.count_opcodes(lambda: run_system(events, wl, "hamlet")) for _ in range(2)]
    assert counts[0] == counts[1] > 0
    assert sys.gettrace() is before


def _results(ops=100):
    """Fabricated ``bench`` results: every (input, system) with counters."""
    job = _job()
    counters = dict(ops=ops, coeff_ops=7, snapshots_created=3, peak_mem_bytes=640)
    return {
        name: {"events": 10, **{s: {"best_ms": 1.0, **counters} for s in job.SYSTEMS}}
        for name in job.CONFIGS
    }


def _check(tmp_path, monkeypatch, got):
    """Run ``--check parent`` against a file holding ``_results()`` under
    the label, with ``bench`` returning ``got``; returns the exit code,
    the file's bytes before and after, and the passes asked for."""
    job = _job()
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": {"parent": {"repeat": 3, "results": _results()}}}))
    before = out.read_bytes()
    asked = []

    def bench(repeat, opcodes=False):
        asked.append((repeat, opcodes))
        return got

    monkeypatch.setattr(job, "bench", bench)
    code = job.main(["--check", "parent", "--out", str(out)])
    return code, before, out.read_bytes(), asked


def test_check_equal_counters_exits_0_and_writes_nothing(tmp_path, monkeypatch, capsys):
    got = _results()
    for per_sys in got.values():
        for system in _job().SYSTEMS:
            per_sys[system]["best_ms"] = 99.0  # times may differ
    code, before, after, asked = _check(tmp_path, monkeypatch, got)
    assert code == 0 and after == before and asked == [(1, False)]
    assert "every counter equals parent's" in capsys.readouterr().out


def test_check_differing_counter_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys):
    got = _results()
    got["stock-diverse"]["hamlet-static"]["snapshots_created"] = 4
    code, before, after, _ = _check(tmp_path, monkeypatch, got)
    assert code == 1 and after == before
    assert capsys.readouterr().out.splitlines() == [
        "stock-diverse hamlet-static snapshots_created: 3 -> 4"
    ]


def test_check_unknown_label_fails(tmp_path, monkeypatch):
    job = _job()
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": {}}))
    monkeypatch.setattr(job, "bench", lambda repeat, opcodes=False: _results())
    with pytest.raises(SystemExit, match="nope"):
        job.main(["--check", "nope", "--out", str(out)])
    assert out.read_text() == json.dumps({"runs": {}})


def test_ab_writes_both_checkouts_labels(tmp_path):
    """``--ab`` with this checkout on both sides: it loads the checkout's
    ``src/repro`` a second time, under another package name, and writes
    both labels in one invocation, with equal counters."""
    job = _job()
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "bench.json"
    try:
        assert job.main(["--ab", str(root), "--repeat", "1", "--label", "this", "--out", str(out)]) == 0
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "repro_ab"]:
            del sys.modules[name]
    runs = json.loads(out.read_text())["runs"]
    other = job.checkout_label(str(root))
    assert sorted(runs) == sorted(["this", other])

    def counters(label):
        return {
            name: {s: {c: per[s][c] for c in job.COUNTERS} for s in job.SYSTEMS} | {"events": per["events"]}
            for name, per in runs[label]["results"].items()
        }

    assert counters("this") == counters(other)
    assert sorted(counters("this")) == sorted(job.CONFIGS)
