"""jobs/equivalence.py: a dump equals itself, and a perturbed dump is
reported at its first difference."""
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
