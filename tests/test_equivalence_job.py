"""jobs/equivalence.py: a dump equals itself; a perturbed dump is reported
field by field, with each field's case count; ``--rel-tol`` accepts small
aggregate differences but never a count difference."""
import importlib.util
import json
from pathlib import Path


def _job():
    path = Path(__file__).resolve().parents[1] / "jobs" / "equivalence.py"
    spec = importlib.util.spec_from_file_location("equivalence", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


def test_equivalence_dump_and_compare(tmp_path, capsys):
    job = _job()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert job.main(["--out", str(a), "--inputs", "t11-small-nyc"]) == 0
    cases = json.loads(a.read_text())
    assert {key.split("|")[2] for key in cases} == set(job.ALL_SYSTEMS)
    assert job.main(["--compare", str(a), str(a)]) == 0
    assert f"{len(cases)} cases identical" in capsys.readouterr().out

    key = sorted(cases)[-1]
    cases[key]["results"][0][2]["COUNT(*)"] += 1.0
    b.write_text(json.dumps(cases))
    assert job.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFFERENT:") and key in out and "COUNT(*)" in out


def _dump_with(values):
    """A two-case dump: each case one result row holding ``values``."""
    return {
        f"in|{g}|hamlet": {
            "windows": [0.0],
            "n_events": 3,
            "metrics": {"ops": 10, "coeff_ops": 5},
            "results": [["q", 0.0, dict(values)]],
        }
        for g in (0, 1)
    }


def test_compare_lists_every_field_with_case_counts(tmp_path, capsys):
    job = _job()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = _dump_with({"COUNT(*)": 7.0, "SUM(T.v)": 1.0})
    a.write_text(json.dumps(base))
    other = json.loads(json.dumps(base))
    for case in other.values():
        case["metrics"]["coeff_ops"] = 2
    other["in|1|hamlet"]["results"][0][2]["SUM(T.v)"] = 1.5
    other["in|1|hamlet"]["n_events"] = 4
    b.write_text(json.dumps(other))
    assert job.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "DIFFERENT: 3 field(s)"
    listed = {line.split(":")[0].strip(): line for line in lines[1:]}
    assert set(listed) == {"metrics.coeff_ops", "results.SUM(T.v)", "n_events"}
    assert "2 cases" in listed["metrics.coeff_ops"]
    assert "1 cases" in listed["results.SUM(T.v)"] and "1 cases" in listed["n_events"]


def test_rel_tol_covers_aggregates_but_never_counts(tmp_path, capsys):
    job = _job()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_dump_with({"COUNT(*)": 2.0**60, "AVG(T.v)": 288.61855})))
    close = _dump_with({"COUNT(*)": 2.0**60, "AVG(T.v)": 288.61855 * (1 + 4e-16)})
    b.write_text(json.dumps(close))
    # exact by default
    assert job.main(["--compare", str(a), str(b)]) == 1
    assert "results.AVG(T.v): 2 cases" in capsys.readouterr().out
    assert job.main(["--compare", str(a), str(b), "--rel-tol", "1e-12"]) == 0
    assert "2 cases identical (aggregates within 1e-12)" in capsys.readouterr().out
    # a relative change far below the tolerance in a count is still reported
    far = _dump_with({"COUNT(*)": 2.0**60 + 2.0**9, "AVG(T.v)": 288.61855})
    b.write_text(json.dumps(far))
    assert job.main(["--compare", str(a), str(b), "--rel-tol", "1e-12"]) == 1
    out = capsys.readouterr().out
    assert "results.COUNT(*): 2 cases" in out and "AVG" not in out
    # and so is an aggregate beyond the tolerance
    b.write_text(json.dumps(_dump_with({"COUNT(*)": 2.0**60, "AVG(T.v)": 288.7})))
    assert job.main(["--compare", str(a), str(b), "--rel-tol", "1e-12"]) == 1
    assert "results.AVG(T.v): 2 cases" in capsys.readouterr().out
