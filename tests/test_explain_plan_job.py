"""jobs/explain_plan.py: each sharable set of a workload prints its
queries, its fixed or per-burst decision next to ``fixed_plan``'s
inputs, and its kernel transitions."""
import importlib.util
import re
from pathlib import Path

import pytest


def _job():
    path = Path(__file__).resolve().parents[1] / "jobs" / "explain_plan.py"
    spec = importlib.util.spec_from_file_location("explain_plan", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


def _sets(out: str) -> list[str]:
    return re.split(r"^set \d+: ", out, flags=re.M)[1:]


def test_nyc_shared_is_one_set_that_always_shares(capsys):
    assert _job().main(["--workload", "nyc-shared"]) == 0
    (only,) = _sets(capsys.readouterr().out)
    assert "E = T" in only and "k = 50" in only
    assert "decision: fixed: all 50 share" in only
    assert "unary predicate on E: no; edge predicates: no" in only
    assert "T -> T: positions 0-49" in only


def test_stock_diverse_sets_decide_per_burst(capsys):
    assert _job().main(["--workload", "stock-diverse"]) == 0
    sets = _sets(capsys.readouterr().out)
    assert len(sets) == 4
    for s in sets:
        assert "k = 10" in s and "decision: per burst" in s
        assert "unary predicate on E: yes" in s
    edge = [s for s in sets if "edge predicates: yes" in s]
    assert len(edge) == 3
    assert all("through stored records (edge predicate)" in s for s in edge)


def test_unknown_workload_is_rejected():
    with pytest.raises(SystemExit):
        _job().main(["--workload", "t9-small"])
