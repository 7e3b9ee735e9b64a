"""Wall-clock benchmark harness for the simulation kernel's fast paths.

Runs the paper's campaign scenarios in the three kernel modes of the same
binary (:class:`repro.sim.config.KernelMode`) — cycle-by-cycle stepping,
due-only dispatch without the batch interpreter (fast-forward), and due-only
dispatch with it (production, the default) — verifies all three are
bit-identical (:meth:`repro.platform.system.SystemResult.snapshot`), and
writes a ``BENCH_kernel.json`` report so the performance trajectory of the
simulator is tracked from PR to PR.

Each mode's wall time is the median of five interleaved rounds, each of
which runs every mode once, so a slow spell of a shared host spreads over
the modes instead of landing on one.

The regression gate lives in ``benchmarks/compare_bench.py`` (run by the CI
``bench`` job against this harness's output and the committed baseline);
this process only measures and asserts bit-identity.

Not named ``test_*`` on purpose: this is a standalone harness (pytest tier-1
must stay fast), run directly or by the CI ``bench`` job::

    python benchmarks/bench_kernel.py --output BENCH_kernel.json
    python benchmarks/bench_kernel.py --quick      # CI-sized workloads

The report also carries an ungated ``setup`` block with the per-run fixed
cost every measured run pays before it simulates: the median time of one
4-core CBA platform build, the median time of ``build_trace`` per Figure 1
benchmark at paper scale, the gen-0 garbage-collector passes of one
production CBA max-contention run of each of those benchmarks, and the
objects a ``gc.collect()`` finds after such a run with the collector
disabled during it (``cyclic_objects_per_run``: 0 when a finished platform
is freed by reference counting), and the core ticks per bus request of the
task under analysis in a seed-1 production run of each
(``core_ticks_per_bus_request``: the kernel events its core costs per
bus-bound trace item).

Reading the numbers: ``speedup_vs_stepping`` isolates what due-only
dispatch buys over stepping (every mode walks the same trace columns); and
``speedup_batch_vs_fast_forward`` isolates what the batch interpreter buys
on top of that (large on low-contention/L1-resident runs, where whole hit
stretches collapse into single events; ~neutral on memory-latency-bound
runs, where every access goes to the bus anyway).
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from pathlib import Path

import numpy as np

from common import BenchScenario, bootstrap_src, report_header, time_interleaved, write_report

bootstrap_src()

from repro.cpu.core_model import CoreModel  # noqa: E402  (path bootstrap above)
from repro.platform.scenarios import (  # noqa: E402
    ScenarioResult,
    run_isolation,
    run_max_contention,
    run_multiprogram,
    run_wcet_estimation,
)
from repro.platform.presets import cba_config  # noqa: E402
from repro.platform.system import MulticoreSystem  # noqa: E402
from repro.sim.config import CBAParameters, KernelMode, PlatformConfig  # noqa: E402
from repro.workloads.base import WorkloadSpec  # noqa: E402
from repro.workloads.eembc import FIGURE1_BENCHMARKS, eembc_workload  # noqa: E402
from repro.workloads.synthetic import streaming_workload  # noqa: E402

MAX_CYCLES = 20_000_000

#: Interleaved timing rounds: on a shared 2-CPU host a best-of-3 from one
#: process swung more than the changes the report tracks.
ROUNDS = 5


def scenarios(accesses: int) -> list[BenchScenario]:
    """The benchmark grid: memory-latency-bound contention runs (every access
    of the task under analysis misses to DRAM while greedy neighbours keep
    maximum-length transactions pending) across the paper's key bus
    configurations, the Table I analysis-mode scenario, and the tracked
    low-contention campaign runs (L1-resident working sets where the batch
    interpreter collapses whole hit stretches into single events)."""
    streaming = streaming_workload(num_accesses=accesses)
    memlat = WorkloadSpec(
        name="memlat",
        num_accesses=accesses,
        working_set_bytes=4 * 1024 * 1024,
        mean_compute_gap=8.0,
        gap_variability=0.5,
        write_fraction=0.2,
    )
    # The working set fits in half the (default 4 KiB) L1: after the cold
    # misses nearly every read hits, which is the regime MBPTA isolation
    # campaigns and cache-friendly tasks spend their time in.
    l1_resident = WorkloadSpec(
        name="l1_resident",
        num_accesses=accesses * 4,
        working_set_bytes=2 * 1024,
        mean_compute_gap=6.0,
        gap_variability=0.5,
        write_fraction=0.0,
        hot_fraction=0.2,
        hot_region_bytes=512,
    )

    def config(arbitration: str, use_cba: bool = False) -> PlatformConfig:
        return PlatformConfig(arbitration=arbitration, use_cba=use_cba)

    # The scaling direction due-only dispatch exists for: 16 L1-resident
    # tasks consolidated on one bus, where stepping ticks every core on
    # every cycle and due-only dispatch ticks only the ones whose wake is
    # due.
    many_core = PlatformConfig(
        arbitration="round_robin", num_cores=16, cba=CBAParameters(num_cores=16)
    )
    many_core_tasks = {core: l1_resident for core in range(16)}

    return [
        BenchScenario(
            "low_contention/isolation/round_robin",
            run_isolation,
            config("round_robin"),
            l1_resident,
        ),
        BenchScenario(
            "low_contention/multiprogram_16core/round_robin",
            run_multiprogram,
            many_core,
            many_core_tasks,
        ),
        BenchScenario(
            "low_contention/isolation/random_permutations+cba",
            run_isolation,
            config("random_permutations", use_cba=True),
            l1_resident,
        ),
        BenchScenario(
            "contention/random_permutations",
            run_max_contention,
            config("random_permutations"),
            streaming,
        ),
        BenchScenario(
            "contention/random_permutations+cba",
            run_max_contention,
            config("random_permutations", use_cba=True),
            streaming,
        ),
        BenchScenario(
            "contention/tdma", run_max_contention, config("tdma"), streaming
        ),
        BenchScenario(
            "contention/tdma+cba",
            run_max_contention,
            config("tdma", use_cba=True),
            streaming,
        ),
        BenchScenario(
            "contention/round_robin", run_max_contention, config("round_robin"), memlat
        ),
        BenchScenario(
            "wcet_estimation/random_permutations+cba",
            run_wcet_estimation,
            config("random_permutations", use_cba=True),
            streaming,
        ),
    ]


def bench_scenario(scenario: BenchScenario) -> dict:
    def run(mode: KernelMode) -> ScenarioResult:
        return scenario.runner(
            scenario.workload,
            scenario.config,
            seed=7,
            run_index=0,
            max_cycles=MAX_CYCLES,
            mode=mode,
        )

    timed = time_interleaved(
        {mode: (lambda mode=mode: run(mode)) for mode in KernelMode}, ROUNDS
    )
    stepped_s, stepped = timed[KernelMode.STEPPING]
    skipped_s, skipped = timed[KernelMode.FAST_FORWARD]
    production_s, production = timed[KernelMode.PRODUCTION]

    reference = stepped.snapshot()
    for mode, result in (("fast-forward", skipped), ("production", production)):
        if result.snapshot() != reference:
            raise AssertionError(
                f"{scenario.name}: {mode} run is NOT bit-identical to stepping"
            )

    cycles = production.system.total_cycles
    return {
        "cycles": cycles,
        "wall_s_stepping": round(stepped_s, 6),
        "wall_s_fast_forward": round(skipped_s, 6),
        "wall_s_production": round(production_s, 6),
        "speedup_vs_stepping": round(stepped_s / skipped_s, 3),
        "speedup_batch_vs_fast_forward": round(skipped_s / production_s, 3),
        "mcycles_per_s_stepping": round(cycles / stepped_s / 1e6, 3),
        "mcycles_per_s_fast_forward": round(cycles / skipped_s / 1e6, 3),
        "mcycles_per_s_production": round(cycles / production_s / 1e6, 3),
        "bit_identical": True,
    }


def median_ms(fn, samples: int) -> float:
    """Median wall time of ``fn(sample)`` over ``samples`` calls, in ms."""
    times = []
    for sample in range(samples):
        start = time.perf_counter()
        fn(sample)
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 4)


def bench_setup(samples: int) -> dict:
    """Per-run set-up cost (informational, not gated by compare_bench)."""
    config = cba_config(4)
    platform_build_ms = median_ms(lambda _: MulticoreSystem(config), samples)
    trace_build_ms = {}
    gc_gen0 = {}
    cyclic = {}
    core_ticks = {}
    for name in FIGURE1_BENCHMARKS:
        workload = eembc_workload(name)
        trace_build_ms[name] = median_ms(
            lambda seed, w=workload: w.build_trace(np.random.default_rng(seed)), samples
        )
        before = gc.get_stats()[0]["collections"]
        run_max_contention(
            workload, config, seed=7, max_cycles=MAX_CYCLES, mode=KernelMode.PRODUCTION
        )
        gc_gen0[name] = gc.get_stats()[0]["collections"] - before
        cyclic[name] = cyclic_objects_per_run(workload, config)
        core_ticks[name] = core_ticks_per_bus_request(workload, config)
    return {
        "platform_build_ms": platform_build_ms,
        "trace_build_ms": trace_build_ms,
        "gc_gen0_per_production_run": gc_gen0,
        "cyclic_objects_per_run": cyclic,
        "core_ticks_per_bus_request": core_ticks,
    }


def cyclic_objects_per_run(workload, config) -> int:
    """Objects only a garbage-collector pass frees after one finished
    production max-contention run (0: the platform died by reference
    counting)."""
    gc.collect()
    gc.disable()
    try:
        run_max_contention(
            workload, config, seed=7, max_cycles=MAX_CYCLES, mode=KernelMode.PRODUCTION
        )
        return gc.collect()
    finally:
        gc.enable()


def core_ticks_per_bus_request(workload, config) -> float:
    """``CoreModel.tick`` calls per bus request of the task under analysis
    in one seed-1 production max-contention run."""
    ticks = 0
    tick = CoreModel.tick

    def counting_tick(core: CoreModel) -> None:
        nonlocal ticks
        ticks += 1
        tick(core)

    CoreModel.tick = counting_tick
    try:
        result = run_max_contention(
            workload, config, seed=1, max_cycles=MAX_CYCLES, mode=KernelMode.PRODUCTION
        )
    finally:
        CoreModel.tick = tick
    return round(ticks / result.system.core_counters[result.tua_core].bus_requests, 3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", type=Path, default=Path("BENCH_kernel.json"),
        help="where to write the JSON report (default: ./BENCH_kernel.json)",
    )
    parser.add_argument(
        "--accesses", type=int, default=800,
        help="trace length of the task under analysis (default: 800)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run: 200 accesses",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.accesses = min(args.accesses, 200)

    results: dict[str, dict] = {}
    tracked: dict[str, dict] = {}
    for scenario in scenarios(args.accesses):
        entry = bench_scenario(scenario)
        results[scenario.name] = entry
        if scenario.tracked:
            tracked[scenario.name] = entry
        print(
            f"{scenario.name:50s} {entry['cycles']:>9d} cycles  "
            f"stepping {entry['wall_s_stepping']:7.3f}s  "
            f"fast-forward {entry['wall_s_fast_forward']:7.3f}s  "
            f"production {entry['wall_s_production']:7.3f}s  "
            f"-> {entry['speedup_vs_stepping']:5.2f}x / "
            f"{entry['speedup_batch_vs_fast_forward']:5.2f}x"
        )

    setup = bench_setup(samples=3 * ROUNDS)
    print(
        f"\nper-run set-up: platform build {setup['platform_build_ms']:.3f} ms; "
        + ", ".join(
            f"{name} trace {ms:.2f} ms / {setup['gc_gen0_per_production_run'][name]} gen-0 GC"
            f" / {setup['cyclic_objects_per_run'][name]} cyclic objects"
            f" / {setup['core_ticks_per_bus_request'][name]} core ticks per bus request"
            for name, ms in setup["trace_build_ms"].items()
        )
    )

    speedups = [entry["speedup_vs_stepping"] for entry in results.values()]
    batch_speedups = [e["speedup_batch_vs_fast_forward"] for e in tracked.values()]
    report = report_header("kernel_fast_forward")
    report.update(
        {
            "accesses": args.accesses,
            "rounds": ROUNDS,
            "scenarios": results,
            "setup": setup,
            "summary": {
                "min_speedup_vs_stepping": min(speedups),
                "max_speedup_vs_stepping": max(speedups),
                "batch_speedup_low_contention": min(batch_speedups),
                "all_bit_identical": True,
            },
        }
    )
    write_report(args.output, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
