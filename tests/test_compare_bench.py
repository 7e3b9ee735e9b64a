"""Tests for the CI benchmark regression gate (benchmarks/compare_bench.py).

The gate is a standalone script (benchmarks/ is not a package), so it is
exercised the way CI runs it: as a subprocess over crafted report files.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
COMPARE = REPO_ROOT / "benchmarks" / "compare_bench.py"


def kernel_report(
    production: float = 1.0,
    fast_forward: float = 1.0,
    bit_identical: bool = True,
    stepping_mcps: float = 0.5,
    production_mcps: float = 2.0,
) -> dict:
    scenario = {
        "cycles": 1_000_000,
        "wall_s_stepping": 4.0,
        "wall_s_fast_forward": fast_forward,
        "wall_s_production": production,
        "mcycles_per_s_stepping": stepping_mcps,
        "mcycles_per_s_production": production_mcps,
        "bit_identical": bit_identical,
    }
    return {
        "benchmark": "kernel_fast_forward",
        "scenarios": {
            "low_contention/isolation/round_robin": dict(scenario),
            "contention/round_robin": dict(scenario),
        },
    }


def campaign_report(bit_identical: bool = True, total_ms: float = 5.0) -> dict:
    return {
        "benchmark": "campaign_orchestration",
        "campaign": {
            "wall_s_serial": 10.0,
            "wall_s_pool": 4.0,
            "bit_identical": bit_identical,
        },
        "mbpta_post_1000_samples": {"total_ms": total_ms, "under_50ms": total_ms < 50.0},
    }


def run_gate(tmp_path: Path, kernel_current: dict, kernel_baseline: dict | None = None,
             campaign_current: dict | None = None,
             campaign_baseline: dict | None = None) -> subprocess.CompletedProcess:
    args = [sys.executable, str(COMPARE)]
    current = tmp_path / "kernel_current.json"
    current.write_text(json.dumps(kernel_current))
    args += ["--kernel-current", str(current)]
    if kernel_baseline is not None:
        baseline = tmp_path / "kernel_baseline.json"
        baseline.write_text(json.dumps(kernel_baseline))
        args += ["--kernel-baseline", str(baseline)]
    if campaign_current is not None:
        campaign = tmp_path / "campaign_current.json"
        campaign.write_text(json.dumps(campaign_current))
        args += ["--campaign-current", str(campaign)]
    if campaign_baseline is not None:
        baseline = tmp_path / "campaign_baseline.json"
        baseline.write_text(json.dumps(campaign_baseline))
        args += ["--campaign-baseline", str(baseline)]
    return subprocess.run(args, capture_output=True, text=True, cwd=REPO_ROOT)


def test_clean_reports_pass(tmp_path):
    result = run_gate(
        tmp_path, kernel_report(), kernel_report(), campaign_report()
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "regression gate passed" in result.stdout


def test_batch_slower_than_fast_forward_fails(tmp_path):
    result = run_gate(tmp_path, kernel_report(production=1.5, fast_forward=1.0))
    assert result.returncode == 1
    assert "production path" in result.stdout


def test_untracked_scenarios_are_not_gated(tmp_path):
    """Only low_contention/* is wall-clock gated; the memory-latency-bound
    contention scenarios may sit at ~1x without failing the gate."""
    report = kernel_report()
    report["scenarios"]["contention/round_robin"]["wall_s_production"] = 99.0
    result = run_gate(tmp_path, report)
    assert result.returncode == 0, result.stdout + result.stderr


def test_bit_identity_failure_fails_everywhere(tmp_path):
    report = kernel_report()
    report["scenarios"]["contention/round_robin"]["bit_identical"] = False
    result = run_gate(tmp_path, report)
    assert result.returncode == 1
    assert "not bit-identical" in result.stdout


def test_normalised_throughput_regression_vs_baseline_fails(tmp_path):
    baseline = kernel_report(stepping_mcps=0.5, production_mcps=2.0)  # 4.0x normalised
    current = kernel_report(stepping_mcps=0.5, production_mcps=1.0)  # 2.0x normalised
    result = run_gate(tmp_path, current, baseline)
    assert result.returncode == 1
    assert "normalised throughput" in result.stdout


def test_baseline_diff_skipped_across_workload_sizes(tmp_path):
    """A --quick report (smaller traces, lower batch speedups) must not be
    gated against a full-size baseline — the diff is skipped, not failed."""
    baseline = kernel_report(stepping_mcps=0.5, production_mcps=2.0)
    baseline["accesses"] = 800
    current = kernel_report(stepping_mcps=0.5, production_mcps=1.0)  # would regress
    current["accesses"] = 200
    result = run_gate(tmp_path, current, baseline)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "workload sizes differ" in result.stdout


def test_machine_speed_differences_do_not_fail_baseline_diff(tmp_path):
    """A CI runner half as fast as the baseline machine scales stepping and
    default-mode throughput together; the normalised ratio is unchanged and
    the gate passes."""
    baseline = kernel_report(stepping_mcps=0.5, production_mcps=2.0)
    current = kernel_report(stepping_mcps=0.25, production_mcps=1.0)
    result = run_gate(tmp_path, current, baseline)
    assert result.returncode == 0, result.stdout + result.stderr


def test_pre_event_queue_baseline_schema_still_compares(tmp_path):
    """Baselines written before the event-queue column fall back to the
    batch column for the normalised-throughput diff."""
    baseline = kernel_report()
    for entry in baseline["scenarios"].values():
        del entry["mcycles_per_s_production"]
        entry["mcycles_per_s_batch"] = 2.0
    result = run_gate(tmp_path, kernel_report(), baseline)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("mcps", [2.0, 1.0], ids=["steady", "regressed"])
def test_event_queue_baseline_schema_still_compares(tmp_path, mcps):
    """Baselines written before the production column (four-mode reports)
    diff on their event-queue column: the default mode of their time."""
    baseline = kernel_report()
    for entry in baseline["scenarios"].values():
        del entry["mcycles_per_s_production"]
        entry["mcycles_per_s_event_queue"] = 2.0
    result = run_gate(tmp_path, kernel_report(production_mcps=mcps), baseline)
    assert result.returncode == (0 if mcps == 2.0 else 1), result.stdout + result.stderr


def test_dropped_tracked_scenario_is_logged(tmp_path):
    """A tracked scenario present in the baseline but missing from the fresh
    report shrinks the gate's coverage; the diff must say so explicitly."""
    baseline = kernel_report()
    baseline["scenarios"]["low_contention/isolation/tdma"] = dict(
        baseline["scenarios"]["low_contention/isolation/round_robin"]
    )
    result = run_gate(tmp_path, kernel_report(), baseline)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "DROPPED from comparison" in result.stdout
    assert "low_contention/isolation/tdma" in result.stdout


def test_untracked_scenarios_are_listed_as_excluded(tmp_path):
    result = run_gate(tmp_path, kernel_report())
    assert result.returncode == 0, result.stdout + result.stderr
    assert "excluded from wall-clock gating" in result.stdout
    assert "contention/round_robin" in result.stdout


def test_campaign_bit_identity_failure_fails(tmp_path):
    result = run_gate(
        tmp_path, kernel_report(), campaign_current=campaign_report(bit_identical=False)
    )
    assert result.returncode == 1
    assert "pool executor" in result.stdout


def test_campaign_mbpta_budget_failure_fails(tmp_path):
    result = run_gate(
        tmp_path, kernel_report(), campaign_current=campaign_report(total_ms=80.0)
    )
    assert result.returncode == 1
    assert "MBPTA post-processing" in result.stdout


def test_mbpta_cold_start_is_printed_and_not_gated(tmp_path):
    current = campaign_report()
    current["mbpta_cold_start_ms"] = 5_000.0
    result = run_gate(
        tmp_path, kernel_report(), campaign_current=current,
        campaign_baseline=campaign_report(),
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "mbpta cold start n/a -> 5000.0ms" in result.stdout


def test_setup_block_is_printed_and_not_gated(tmp_path):
    current = kernel_report()
    current["setup"] = {
        "platform_build_ms": 99.0,
        "trace_build_ms": {"canrdr": 4.5},
        "gc_gen0_per_production_run": {"canrdr": 3},
        "cyclic_objects_per_run": {"canrdr": 0},
    }
    result = run_gate(tmp_path, current, kernel_baseline=kernel_report())
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert any("platform build" in line and "n/a -> 99.0ms" in line for line in lines)
    assert any("trace build canrdr" in line and "n/a -> 4.5ms" in line for line in lines)
    assert any(
        "gen-0 GC per production run canrdr" in line and "n/a -> 3" in line for line in lines
    )
    assert any(
        "cyclic objects per run canrdr" in line and "n/a -> 0" in line for line in lines
    )


def test_cyclic_objects_read_n_a_where_a_report_lacks_them(tmp_path):
    baseline = kernel_report()
    baseline["setup"] = {"cyclic_objects_per_run": {"matrix": 254}}
    current = kernel_report()
    current["setup"] = {"platform_build_ms": 0.3}
    result = run_gate(tmp_path, current, kernel_baseline=baseline)
    assert result.returncode == 0, result.stdout + result.stderr
    assert any(
        "cyclic objects per run matrix" in line and "254 -> n/a" in line
        for line in result.stdout.splitlines()
    )


def test_core_ticks_per_bus_request_read_n_a_where_a_report_lacks_them(tmp_path):
    baseline = kernel_report()
    baseline["setup"] = {"platform_build_ms": 0.3}
    current = kernel_report()
    current["setup"] = {"core_ticks_per_bus_request": {"matrix": 1.012}}
    result = run_gate(tmp_path, current, kernel_baseline=baseline)
    assert result.returncode == 0, result.stdout + result.stderr
    assert any(
        "core ticks per bus request matrix" in line and "n/a -> 1.012" in line
        for line in result.stdout.splitlines()
    )
