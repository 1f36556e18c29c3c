"""Tiny-size runs of every workload through the command line, as the benchmark is run."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def test_spec_matches_the_workloads_and_metrics():
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [p[:3] for p in PER_LAYER]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_tiny_run(workload):
    rc, lines = run(workload, 0)
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_tiny_run(workload):
    rc, lines = run(workload, 1)
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


EXACT = (
    "canon.validate.calls_per_record",
    "series.matrix_from_eta.calls_per_record",
    "series.series_membership.calls_per_record",
    "census.count_exact.calls",
    "core.smith_normal_form.calls",
    "canon.reject_ratio",
    "trace.spans",
)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_exact_counts_repeat(workload):
    first = json.loads(run(workload, 1)[1][-1])["metrics"]
    second = json.loads(run(workload, 1)[1][-1])["metrics"]
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    if workload == "export":  # the seed program's figures per record
        assert [first[k]["value"] for k in EXACT[:3]] == [7, 2, 3]
    if workload == "census":  # plot data recounts: twice per iota and rho
        assert first["census.count_exact.calls"]["value"] == 2 * 3 * 200
    if workload == "ingest":
        assert first["canon.reject_ratio"]["value"] == 0.05


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, lines = run("census", 0, cwd=tmp_path)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)
