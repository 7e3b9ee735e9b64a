"""Self-test of the benchmark on a tiny grid.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric ``BENCHMARK.json`` names prints with its unit,
that the traced run reproduces the untraced run's ``sim_digest`` bit for
bit, and that a failed Figure 1 ordering check raises the error rate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from metrics import END_TO_END, PER_LAYER, Ledger  # noqa: E402

WORKLOADS = ("fig1-paper", "mbpta-pool", "consolidate-16")


def run_benchmark(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "smoke",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest_after(lines: list[str], prefix: str) -> str:
    (line,) = [line for line in lines if line.startswith(prefix)]
    return line.split()[-1]


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_and_tracing_changes_no_output(workload):
    plain_lines, plain = run_benchmark(workload, trace=0)
    traced_lines, traced = run_benchmark(workload, trace=1)

    for result, units, lines in (
        (plain, END_TO_END, plain_lines),
        (traced, PER_LAYER, traced_lines),
    ):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        for name, unit in units.items():
            assert any(
                line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
            ), name
    for name in END_TO_END:
        assert plain["metrics"][name]["value"] > 0, name

    untraced = digest_after(traced_lines, "sim_digest untraced")
    assert digest_after(traced_lines, "sim_digest traced") == untraced
    assert digest_after(plain_lines, "sim_digest ") == untraced


def test_failed_ordering_check_raises_error_rate():
    import grids
    from repro.experiments.figure1 import Figure1Result

    def error_rate(slowdowns: dict[str, dict[str, float]]) -> Ledger:
        ledger = Ledger()
        for name, ok in grids.figure1_checks(Figure1Result(slowdowns=slowdowns)):
            ledger.check(name, ok)
        return ledger

    slowdowns = {
        bench: {
            "RP-ISO": 1.0,
            "CBA-ISO": 1.03,
            "H-CBA-ISO": 1.0,
            "RP-CON": 3.3 if bench == "matrix" else 2.0,
            "CBA-CON": 1.6,
            "H-CBA-CON": 1.3,
        }
        for bench in ("cacheb", "canrdr", "matrix", "tblook")
    }
    assert error_rate(slowdowns).error_rate == 0.0

    slowdowns["cacheb"]["CBA-CON"] = 2.5  # CBA no longer bounds the slowdown
    broken = error_rate(slowdowns)
    assert broken.error_rate > 0.0
    assert broken.failures == ["check failed: cacheb: CBA-CON < RP-CON"]
