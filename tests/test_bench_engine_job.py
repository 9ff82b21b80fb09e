"""jobs/bench_engine.py: the opcode count is a deterministic measure."""
import importlib.util
import sys
from pathlib import Path

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
