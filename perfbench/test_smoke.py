"""Smoke test of the benchmark itself, kept out of the library suite.

    python -m pytest perfbench/test_smoke.py -q

One short run per workload (a one-second budget still sends one
request) checks that every metric BENCHMARK.json declares is printed
with its unit; a traced run checks the span bookkeeping.  Takes about
a minute and a half on one core.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed(stdout, declared):
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"  {name} ") and line.endswith(unit)
                   for line in lines[:-1]), name
    return {name: entry["value"] for name, entry
            in result["metrics"].items()}


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_every_end_to_end_metric_is_printed(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    values = _printed(proc.stdout, declared)
    assert all(value > 0 for value in values.values())
    assert "  failed_frac 0 ratio" in proc.stdout


def test_traced_run_accounts_for_request_time():
    proc = _run("recon-repeat", 1)
    assert proc.returncode == 0, proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = _printed(proc.stdout, declared)
    self_time = sum(value for name, value in values.items()
                    if name.endswith(".s") and name != "experiments.request.s")
    assert self_time == pytest.approx(values["experiments.request.s"],
                                      rel=1e-9)
    calls = values["operators.assemble_blocks.calls"]
    assert calls >= 1 and calls == int(calls)
    assert values["operators.face_pairs"] > 0
    assert values["fields.points"] > 0


def test_missing_boundary_is_named(monkeypatch):
    import lovebem.operators as operators
    from lovebem import experiments
    from tracing import MissingBoundary, Tracer

    monkeypatch.delattr(experiments, "sample_measurement")
    with pytest.raises(MissingBoundary, match="dipole.sample_measurement"):
        Tracer().install()
    assert not hasattr(operators.assemble_blocks, "__wrapped__")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = _run("recon-repeat", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
