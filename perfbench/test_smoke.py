"""Smoke test of the benchmark itself, at a tiny run length.

    python -m pytest perfbench/test_smoke.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit, that the traced layers account for the traced wall time, that a
deliberately perturbed result is counted as a failure, and that the
benchmark refuses to run where the program's sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {  # the workload's own names for the p50, tail and throughput metrics
    "cli-cold": ("cli_p50_ms", "cli_tail_ms", "calls_per_s"),
    "fit-derive": ("chain_p50_ms", "chain_tail_ms", "chains_per_s"),
    "spectrum": ("spectrum_p50_ms", "spectrum_tail_ms", "levels_per_s"),
    "quad-scan": ("quad_p50_ms", "quad_tail_ms", "quad_points_per_s"),
}
SHARED = ("setup_s", "peak_rss_mb", "failed_frac", "refused_frac", "alpha0_gap_plus",
          "alpha0_gap_minus", "root_max_rel_err", "quad_max_rel_err")


def run_bench(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.3", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


def result_lines(proc):
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return report, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    report, result = result_lines(run_bench(workload, trace))
    assert result["correct"]
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if trace:
        assert values["trace.wall_ms"] > 0.0
        if workload != "cli-cold":
            layers = sum(v for k, v in values.items() if k.endswith(".self_ms"))
            total = layers + values["trace.unattributed_ms"]
            assert total == pytest.approx(values["trace.wall_ms"], rel=1e-9)
    else:
        named = report["metrics"]
        for name in (*SHARED, *NAMED[workload]):
            assert named[name]["unit"] and math.isfinite(named[name]["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_results_count_as_failed(workload):
    report, result = result_lines(run_bench(workload, 0, "--perturb"))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - report["refused"]


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_bench(WORKLOADS[0], 0, root=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
