"""Wall-clock benchmark harness for campaign execution and MBPTA analysis.

Times what the ROADMAP "Campaign-level perf tracking" item asks for:

* a full ``Campaign().run`` grid (several benchmark x configuration labels)
  through both the serial executor and the process-pool executor, verifying
  the two produce bit-identical samples;
* the vectorised MBPTA post-processing of a 1,000-sample campaign — i.i.d.
  battery, block-maxima + Gumbel fit, pWCET grid — whose wall time must stay
  in the low-millisecond range (< 50 ms is the acceptance threshold recorded
  in the report);
* the same analysis from a cold start (``mbpta_cold_start_ms``): fresh
  interpreters that import ``repro.mbpta`` and analyse the vector once, so
  the SciPy import the analysis pays for is tracked too.

Writes a ``BENCH_campaign.json`` report next to ``BENCH_kernel.json`` so
executor overheads and analysis latency are tracked from PR to PR.  Not
named ``test_*`` on purpose: this is a standalone harness (pytest tier-1
must stay fast), run directly or by the CI ``bench`` job::

    python benchmarks/bench_campaign.py --output BENCH_campaign.json
    python benchmarks/bench_campaign.py --quick      # CI-sized grid
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import bootstrap_src, report_header, write_report

bootstrap_src()

from repro.campaign.campaign import Campaign, aggregate_by_label  # noqa: E402
from repro.campaign.executor import ParallelExecutor, SerialExecutor  # noqa: E402
from repro.campaign.jobs import seed_block_jobs  # noqa: E402
from repro.mbpta.evt import fit_evt  # noqa: E402
from repro.mbpta.iid import iid_test_battery  # noqa: E402
from repro.mbpta.protocol import mbpta_from_samples  # noqa: E402
from repro.mbpta.pwcet import DEFAULT_EXCEEDANCE_GRID, PWCETCurve  # noqa: E402
from repro.platform.presets import config_by_label  # noqa: E402
from repro.workloads.eembc import eembc_workload  # noqa: E402
from repro.experiments.runner import scale_workload  # noqa: E402

#: The campaign grid: benchmark x bus-configuration labels, one scenario each.
GRID = [
    ("canrdr", "RP", "max_contention"),
    ("canrdr", "CBA", "wcet_estimation"),
    ("matrix", "RP", "max_contention"),
    ("matrix", "CBA", "wcet_estimation"),
]

MAX_CYCLES = 5_000_000


def build_jobs(runs_per_label: int, access_scale: float, seed: int) -> list:
    jobs = []
    for benchmark, configuration, scenario in GRID:
        workload = scale_workload(eembc_workload(benchmark), access_scale)
        jobs += seed_block_jobs(
            f"{benchmark}/{configuration}",
            scenario,
            seed=seed,
            num_runs=runs_per_label,
            workload=workload,
            config=config_by_label(configuration),
            max_cycles=MAX_CYCLES,
        )
    return jobs


def time_campaign(jobs, executor) -> tuple[float, dict]:
    campaign = Campaign(executor=executor)
    start = time.perf_counter()
    results = campaign.run(jobs)
    elapsed = time.perf_counter() - start
    aggregated = aggregate_by_label(jobs, results)
    return elapsed, {label: agg.samples for label, agg in aggregated.items()}


def time_mbpta_post(samples: np.ndarray, block_size: int = 20) -> dict:
    """Time the analysis stages on one campaign-sized sample vector."""
    timings: dict[str, float] = {}
    # Same well-posedness rule as mbpta_from_samples: keep >= 5 block maxima.
    block_size = max(2, min(block_size, int(samples.size) // 5))

    start = time.perf_counter()
    iid_test_battery(samples)
    timings["iid_battery_ms"] = (time.perf_counter() - start) * 1e3

    start = time.perf_counter()
    evt = fit_evt(samples, block_size=block_size)
    timings["evt_fit_ms"] = (time.perf_counter() - start) * 1e3

    curve = PWCETCurve(evt=evt, observed_max=float(samples.max()))
    grid = np.asarray(DEFAULT_EXCEEDANCE_GRID)
    start = time.perf_counter()
    curve.wcet_at(grid)
    timings["pwcet_grid_ms"] = (time.perf_counter() - start) * 1e3

    # The integrated entry point the experiments call (repeats the stages).
    start = time.perf_counter()
    mbpta_from_samples(samples, block_size=block_size)
    timings["mbpta_from_samples_ms"] = (time.perf_counter() - start) * 1e3

    timings["total_ms"] = (
        timings["iid_battery_ms"] + timings["evt_fit_ms"] + timings["pwcet_grid_ms"]
    )
    return timings


#: One fresh interpreter's analysis start-up: import ``repro.mbpta`` and
#: analyse the 1,000-sample vector once; prints the elapsed milliseconds.
COLD_START_PROGRAM = """
import time

import numpy as np

samples = np.random.default_rng(2017).gumbel(30_000.0, 600.0, size=1000)
start = time.perf_counter()
from repro.mbpta import mbpta_from_samples

mbpta_from_samples(samples)
print((time.perf_counter() - start) * 1e3)
"""


def mbpta_cold_start_ms(interpreters: int = 3) -> float:
    """Median cold-start analysis time over ``interpreters`` fresh processes."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    times = []
    for _ in range(interpreters):
        done = subprocess.run(
            [sys.executable, "-c", COLD_START_PROGRAM],
            env=env, capture_output=True, text=True, check=True,
        )
        times.append(float(done.stdout))
    return round(statistics.median(times), 3)


def best_mbpta_timings(samples: np.ndarray, repeats: int) -> dict:
    best: dict[str, float] = {}
    for _ in range(repeats):
        timings = time_mbpta_post(samples)
        for key, value in timings.items():
            best[key] = min(best.get(key, float("inf")), value)
    return {key: round(value, 3) for key, value in best.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_campaign.json"),
        help="where to write the JSON report (default: ./BENCH_campaign.json)",
    )
    parser.add_argument(
        "--runs", type=int, default=25,
        help="randomised runs per grid label (default: 25)",
    )
    parser.add_argument(
        "--jobs", type=int, default=4,
        help="worker processes for the pool executor (default: 4)",
    )
    parser.add_argument(
        "--access-scale", type=float, default=0.25,
        help="workload length scale factor (default: 0.25)",
    )
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing repetitions for the MBPTA stage; best-of is reported",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: 20 runs per label, 0.1 access scale",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.runs = min(args.runs, 20)
        args.access_scale = min(args.access_scale, 0.1)
    # The analysis stages timed below need >= 20 samples (MBPTA minimum) and
    # >= 10 for the i.i.d. battery; hold the floor so every grid label's
    # aggregate is analysable.
    args.runs = max(args.runs, 20)

    jobs = build_jobs(args.runs, args.access_scale, seed=7)
    print(f"campaign grid: {len(GRID)} labels x {args.runs} runs = {len(jobs)} jobs")

    serial_s, serial_samples = time_campaign(jobs, SerialExecutor())
    pool_s, pool_samples = time_campaign(
        jobs, ParallelExecutor(max_workers=args.jobs)
    )

    identical = set(serial_samples) == set(pool_samples) and all(
        np.array_equal(serial_samples[label], pool_samples[label])
        for label in serial_samples
    )
    if not identical:
        raise AssertionError("process-pool campaign is NOT bit-identical to serial")
    print(
        f"campaign wall time: serial {serial_s:6.2f}s  "
        f"pool({args.jobs}) {pool_s:6.2f}s  -> {serial_s / pool_s:4.2f}x"
    )

    # MBPTA post-processing of a 1,000-sample campaign.  The sample vector
    # stands in for a paper-scale (1,000 runs per configuration) campaign;
    # a fixed seed keeps the report comparable across PRs.
    thousand = np.random.default_rng(2017).gumbel(30_000.0, 600.0, size=1000)
    mbpta_1000 = best_mbpta_timings(thousand, args.repeats)
    mbpta_1000["samples"] = 1000
    mbpta_1000["under_50ms"] = mbpta_1000["total_ms"] < 50.0
    print(
        "MBPTA post-processing (1000 samples): "
        f"iid {mbpta_1000['iid_battery_ms']:.2f}ms  "
        f"evt {mbpta_1000['evt_fit_ms']:.2f}ms  "
        f"grid {mbpta_1000['pwcet_grid_ms']:.3f}ms  "
        f"total {mbpta_1000['total_ms']:.2f}ms"
    )
    cold_start_ms = mbpta_cold_start_ms()
    print(f"MBPTA cold start (import + 1000 samples, median of 3): {cold_start_ms:.1f}ms")
    if not mbpta_1000["under_50ms"]:
        raise AssertionError(
            f"MBPTA post-processing took {mbpta_1000['total_ms']:.1f} ms "
            "for 1000 samples; the acceptance threshold is 50 ms"
        )

    # The same stages on the actual (smaller) campaign aggregate, so the
    # report also reflects real measured execution times, not only the
    # synthetic vector.
    campaign_vector = serial_samples[f"{GRID[0][0]}/{GRID[0][1]}"]
    mbpta_campaign = best_mbpta_timings(campaign_vector, args.repeats)
    mbpta_campaign["samples"] = int(campaign_vector.size)

    report = report_header("campaign_orchestration")
    report.update({
        "grid": {
            "labels": [f"{b}/{c}:{s}" for b, c, s in GRID],
            "runs_per_label": args.runs,
            "total_jobs": len(jobs),
            "access_scale": args.access_scale,
        },
        "campaign": {
            "wall_s_serial": round(serial_s, 3),
            "wall_s_pool": round(pool_s, 3),
            "pool_workers": args.jobs,
            "cpu_count": os.cpu_count(),
            "speedup_pool_vs_serial": round(serial_s / pool_s, 3),
            "bit_identical": True,
        },
        "mbpta_post_1000_samples": mbpta_1000,
        "mbpta_post_campaign_samples": mbpta_campaign,
        "mbpta_cold_start_ms": cold_start_ms,
    })
    write_report(args.output, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
