"""Self-tests of the benchmark harness (toy sizes, about a minute).

    python3 -m pytest perfbench -q
"""

import csv
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import FULL, SMOKE  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DOCS = json.loads((HERE / "metrics.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section):
    return [m["name"] for m in DECLARED[section]]


def test_declared_names_are_valid_and_documented():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert _names("workloads") == list(FULL) == list(SMOKE)
    assert set(_names("end_to_end")) == set(DOCS["end_to_end"])
    assert set(_names("per_layer")) == set(DOCS["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in DECLARED["end_to_end"])


def _smoke(trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    results = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return dict(zip(SMOKE, results))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_for_every_workload(trace, section):
    units = {m["name"]: m["unit"] for m in DECLARED[section]}
    results = _smoke(trace)
    assert list(results) == list(SMOKE)
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units, name


def _rewrite_csv(path: Path, column: str, change):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = change(rows[0][column])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _rewrite_json(path: Path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _bump_error(data):
    data["runs"][0]["l1_error_per_node"][0] += 0.5


def _bump_bytes(data):
    data["runs"][0]["bytes_total"] += 1


RUN_CORRUPTIONS = {
    "oracle column": lambda art: _rewrite_csv(art / "overlap.csv", "b_star", lambda v: repr(float(v) * 1.01)),
    "node error": lambda art: _rewrite_json(art / "run_metrics.json", _bump_error),
    "byte count": lambda art: _rewrite_json(art / "run_metrics.json", _bump_bytes),
    "missing trace": lambda art: (art / "trace.csv").unlink(),
}
SWEEP_CORRUPTIONS = {
    "message mean": lambda art: _rewrite_csv(art / "scaling.csv", "messages_mean",
                                             lambda v: repr(float(v) + 1)),
    "failed runs": lambda art: (art / "failures.json").write_text("[]"),
}


def _artifacts(tmp_path, wl):
    """One repetition of a toy workload, plus the benchmark's reference."""
    out = tmp_path / wl.name
    out.mkdir()
    tree = wl.config(0, str(out / "artifacts"))
    cfg = out / "config.yaml"
    cfg.write_text(run.yaml.safe_dump(tree))
    rep = run.launch(wl, 0, False, cfg, out)
    return rep, run.reference(wl, tree)


@pytest.mark.parametrize("workload,corruptions", [
    ("lossy_async_q16", RUN_CORRUPTIONS), ("scaling_sweep", SWEEP_CORRUPTIONS)])
def test_gate_rejects_corrupted_artifacts(tmp_path, workload, corruptions):
    wl = SMOKE[workload]
    rep, ref = _artifacts(tmp_path, wl)
    run.gate(wl, rep, ref)  # the untouched artifacts pass
    clean = rep["artifacts"]
    for label, corrupt in corruptions.items():
        art = tmp_path / label.replace(" ", "_")
        shutil.copytree(clean, art)
        corrupt(art)
        with pytest.raises(run.GateError):
            run.gate(wl, dict(rep, artifacts=art), ref)
