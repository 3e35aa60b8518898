"""Tests of the benchmark itself: python -m pytest perfbench/tests"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def run_in_process(capsys, workload, trace=0):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace, tiny=True)
    assert harness.main(args, threads=1) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("sim zoo ") for line in lines)


def test_corrupted_accumulator_counts_as_failed(monkeypatch, capsys):
    from lutpim import engine

    raw_dot = engine._raw_dot_vector
    monkeypatch.setattr(engine, "_raw_dot_vector", lambda qa, qw, bits: raw_dot(qa, qw, bits) + 1)
    result = run_in_process(capsys, "mobilenet_v2_lut8")
    assert result["failed"] > 0 and result["correct"] is False


def test_float_backend_request_counts_as_failed(monkeypatch, capsys):
    from lutpim import cli

    monkeypatch.setattr(cli, "_rebuild_qmodel", lambda net, ws, bits: None)
    result = run_in_process(capsys, "malware_corpus")
    assert result["failed"] >= harness.workloads.TINY.min_requests


def _snapshot():
    import lutpim.system

    owners = [m for name, m in sorted(sys.modules.items()) if name == "lutpim" or name.startswith("lutpim.")]
    owners.append(lutpim.system.EnergyLedger)
    return {owner: dict(vars(owner)) for owner in owners}


def test_tracer_restores_every_wrapped_name(capsys):
    run_in_process(capsys, "cluster_engine")  # fills lutpim's lazy module-level caches first
    before = _snapshot()
    result = run_in_process(capsys, "cluster_engine", trace=1)
    assert result["metrics"]["cluster.mac8.calls"]["value"] > 0
    assert result["metrics"]["engine.infer_lut.calls"]["value"] > 0
    after = _snapshot()
    assert after.keys() == before.keys()
    for owner, attrs in before.items():
        assert after[owner].keys() == attrs.keys(), owner
        changed = [k for k, v in attrs.items() if after[owner][k] is not v]
        assert not changed, (owner, changed)


def test_fails_without_a_result_outside_a_source_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_cli("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
