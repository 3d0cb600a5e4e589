"""Smoke test of the benchmark itself (not part of the tier-1 suite).

A one-pass run of each workload (``--seconds 0``: the real items and
their checks, one cold pass), untraced and traced, must emit every metric
that ``BENCHMARK.json`` names, with its unit, and pass its output checks.
It takes a few minutes.  Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT):
    cmd = SPEC["command"][1:] + ["--workload", workload, "--seed", "3",
                                 "--seconds", "0", "--trace", str(trace)]
    return subprocess.run([sys.executable] + cmd, cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return report, result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_end_to_end_metrics(workload):
    report, metrics = _parse(_run(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert all(v["value"] > 0 for v in metrics.values())
    probes = report["edge_probes"]
    assert probes["attempted"] == (2 if workload == "residue-numerics" else 0)
    assert report["error_rate"] == pytest.approx(
        probes["failed"] / (report["samples"]["items"] + probes["attempted"]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics(workload):
    _, metrics = _parse(_run(workload, 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    value = {k: v["value"] for k, v in metrics.items()}
    # Self times plus the benchmark's own time account for the wall time.
    self_total = sum(v for k, v in value.items() if k.endswith(".self_s"))
    assert self_total + value["trace.bench_s"] == pytest.approx(
        value["trace.wall_s"], rel=0.02)
    # The layers separate the workloads as designed.
    if workload == "cochain-closure":
        assert value["scalars.laurent_share"] == 1.0
        assert value["spectral.self_s"] == 0.0
    elif workload == "peterweyl-operators":
        assert 0.0 < value["scalars.laurent_share"] < 1.0
        assert value["peterweyl.basis_builds"] > 0
    else:
        assert value["scalars.ops"] == 0
        assert value["peterweyl.basis_builds"] == 0
        assert value["spectral.scan_terms"] > 0


def test_without_source_tree_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
