"""Benchmark of the paper artefacts, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig1-paper --seed 1 --seconds 24 --trace 0

Workloads: ``fig1-paper``, ``mbpta-pool``, ``consolidate-16`` (see
``grids.py`` and ``CONTEXT.md``).

``--trace 0`` repeats the workload's grid until ``--seconds`` have passed
and reports the end-to-end metrics: medians over the passes, in reference
seconds (``calibrate.py``), so that a slow spell of the host cancels out;
``--trace 1``
runs the grid once untraced, once as a traced serial replay and, for
campaign-based workloads, once through ``CampaignProfiler``, and reports the
per-layer metrics.  Either way the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable summary.  The traced run writes its spans to
``.bench_out/<workload>.trace.json`` (Chrome trace-event format).

The simulator is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibrate import Calibration
from metrics import END_TO_END, PER_CYCLE_LAYERS, PER_LAYER, Ledger, median, ratio, tail

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: Fresh-interpreter set-ups timed per ``--trace 0`` run (median reported).
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150
#: Calibration samples taken before each pass and each set-up.
CALIBRATION_SAMPLES = 6


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("fig1-paper", "mbpta-pool", "consolidate-16")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("paper", "smoke"),
        default="paper",
        help="grid size; 'smoke' is the tiny grid of the benchmark's own test",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up the workload and exit (timed by the parent for setup_s)",
    )
    return parser.parse_args(argv)


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory: this process plus ``workers`` pool processes.

    ``RUSAGE_CHILDREN`` holds the largest finished child, which is a pool
    worker as long as it is read before any set-up subprocess runs.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def time_setups(
    args: argparse.Namespace, ledger: Ledger, calibration: Calibration
) -> list[float]:
    """Wall time of fresh interpreters that only set the workload up."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--size", args.size, "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        calibration.sample(CALIBRATION_SAMPLES)
        started = perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=False,
        )
        samples.append(perf_counter() - started)
        ledger.check("set-up subprocess exits 0", done.returncode == 0)
        if done.returncode:
            sys.stderr.write(done.stderr)
    return samples


def measured_run(workload, args: argparse.Namespace, ledger: Ledger, log: list[str]):
    """``--trace 0``: repeat the grid for ``--seconds``; report medians."""
    calibration = Calibration()
    passes = []
    started = perf_counter()
    while True:
        calibration.sample(CALIBRATION_SAMPLES)
        try:
            outcome = workload.run_pass()
        except Exception as exc:  # a failed pass is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ledger.runs(1, 1, f"pass {len(passes)} raised {exc!r}")
            break
        passes.append(outcome)
        ledger.runs(outcome.runs, outcome.truncated, f"{outcome.truncated} runs truncated")
        elapsed = perf_counter() - started
        if elapsed + 0.5 * median([p.wall_s for p in passes]) >= args.seconds:
            break
    if not passes:
        return {}
    first = passes[0]
    for name, ok in workload.checks(first):
        ledger.check(name, ok)
    for index, outcome in enumerate(passes[1:], start=1):
        ledger.check(f"pass {index} repeats pass 0 bit for bit", outcome.digest == first.digest)

    # One sample per simulated run of the grid: its median time over the passes.
    run_ms = [median([p.run_ms[run] for p in passes]) for run in first.run_ms]
    tail_ms, percentile, samples = tail(run_ms)
    wall = median([p.wall_s for p in passes])
    rss = peak_rss_mb(workload.workers)
    setup = median(time_setups(args, ledger, calibration))
    # Host seconds -> reference seconds (see calibrate.py).
    speed = calibration.factor
    values = {
        "setup_s": setup * speed,
        "wall_s": wall * speed,
        "sim_mcycles_per_s": first.sim_cycles / (wall * speed) / 1e6,
        "run_ms_p50": median(run_ms) * speed,
        "run_ms_tail": tail_ms * speed,
        "peak_rss_mb": rss,
    }

    log.append(f"passes {len(passes)}, simulated runs {sum(p.runs for p in passes)}, "
               f"{first.sim_cycles} simulated cycles per pass")
    log.append("pass wall_s (host) " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    log.append(f"host medians: wall {wall:.3f} s, set-up {setup:.3f} s; "
               f"{len(calibration.samples)} calibration samples, factor {speed:.4f}")
    log.append(f"sim_digest {first.digest}")
    log.append(f"run_ms_tail is p{percentile:.1f} of {samples} runs")
    for name, value in workload.fidelity(first).items():
        log.append(f"{name} {value:.4f} ({PER_LAYER[name]})")
    return values


def traced_run(workload, ledger: Ledger, log: list[str]):
    """``--trace 1``: untraced pass, traced serial replay, profiled pass."""
    from layers import LayerTracer

    untraced = workload.run_pass()
    baseline = workload.replay() if workload.workers else untraced
    tracer = LayerTracer()
    with tracer.active():
        traced = workload.replay()
    profiled = workload.profiled_pass()

    replays = {"traced replay": traced, "serial replay": baseline, "profiled pass": profiled}
    replays = {what: p for what, p in replays.items() if p is not None and p is not untraced}
    for outcome in (untraced, *replays.values()):
        ledger.runs(outcome.runs, outcome.truncated, f"{outcome.truncated} runs truncated")
    for name, ok in workload.checks(untraced):
        ledger.check(name, ok)
    for what, outcome in replays.items():
        ledger.check(f"{what} sim_digest equals the untraced one",
                     outcome.digest == untraced.digest)
    # Same mode, same process: equal observability fields mean the wrappers
    # left the bus, the kernel and the batch interpreter on the same path.
    ledger.check("traced replay observability fields equal the untraced replay's",
                 traced.observability == baseline.observability)
    log.append(f"sim_digest untraced {untraced.digest}")
    log.append(f"sim_digest traced   {traced.digest}")

    counts = tracer.counters
    executed = counts["total_cycles"] - counts["skipped_cycles"]
    arbitrate_calls = tracer.calls("arbitrate")
    phases = profiled.profiler if profiled is not None else None
    cache_hits = phases.counters.get("cache_hit", 0) if phases else 0
    cache_misses = phases.counters.get("cache_miss", 0) if phases else 0
    values: dict[str, float] = {
        "bus.self_s": tracer.layer_self("bus"),
        "bus.grants": counts["bus_grants"],
        "bus.idle_pending_cycles": counts["bus_idle_pending_cycles"],
        "bus.monitor_s": tracer.layer_self("bus.monitor"),
        "arbiters.arbitrate_s": tracer.inclusive("arbitrate"),
        "arbiters.arbitrate_calls": arbitrate_calls,
        "arbiters.grant_ratio": ratio(counts["bus_grants"], arbitrate_calls),
        "arbiters.next_grant_s": tracer.inclusive("next_grant"),
        "core.cba_update_s": tracer.inclusive("cba_update"),
        "core.cba_blocked_cycles": counts["cba_blocked_cycles"],
        "cache.l2_resolve_s": tracer.inclusive("l2_resolve"),
        "cache.l2_miss_rate": ratio(counts["l2_misses"], counts["l2_accesses"]),
        "cache.l1_miss_rate": ratio(
            counts["l1_accesses"] - counts["l1_hits"], counts["l1_accesses"]
        ),
        "sim.scheduler_s": tracer.layer_self("sim"),
        "sim.executed_cycles": executed,
        "sim.skip_ratio": ratio(counts["skipped_cycles"], counts["total_cycles"]),
        "cpu.core_s": tracer.layer_self("cpu"),
        "cpu.batched_item_ratio": ratio(counts["batched_items"], counts["trace_items"]),
        "platform.build_s": tracer.self_of("build"),
        "workloads.trace_build_s": tracer.inclusive("trace_build"),
        "workloads.contender_s": tracer.self_of("contender"),
        "memory.transaction_s": tracer.inclusive("memory"),
        "memory.row_hit_ratio": ratio(counts["dram_row_hits"], counts["dram_accesses"]),
        "memory.reordered_accesses": counts["reordered_accesses"],
        "campaign.context_cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
        "mbpta.iid_ms": 1000.0 * tracer.inclusive("iid"),
        "mbpta.evt_fit_ms": 1000.0 * tracer.inclusive("evt_fit"),
        "mbpta.pwcet_ms": 1000.0 * tracer.inclusive("pwcet"),
        "trace.overhead_ratio": ratio(traced.wall_s, baseline.wall_s),
    }
    for phase in ("spawn", "dispatch", "simulate", "result", "store"):
        values[f"campaign.{phase}_s"] = phases.seconds[phase] if phases else 0.0
    for layer in PER_CYCLE_LAYERS:
        values[f"{layer}_us_per_exec_cycle"] = ratio(
            1e6 * tracer.layer_self(layer), executed
        )
    fidelity = workload.fidelity(untraced)
    for name in ("paper_err.rp_con", "paper_err.cba_con", "paper_err.cba_iso_pp"):
        values[name] = fidelity.get(name, 0.0)

    path = tracer.write_chrome_trace(OUT / f"{workload.name}.trace.json", workload.name)
    log.append(f"spans: {len(tracer.spans)} kept, {tracer.dropped_spans} dropped -> "
               f"{path.relative_to(ROOT)}")
    log.append(f"serial replay {baseline.wall_s:.3f} s untraced, {traced.wall_s:.3f} s traced")
    return values


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import grids

    OUT.mkdir(exist_ok=True)
    workload = grids.WORKLOADS[args.workload](args.seed, grids.SIZES[args.size], OUT)
    workload.set_up()
    if args.setup_only:
        return 0

    ledger = Ledger()
    log = [f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}"]
    if args.trace:
        try:
            values = traced_run(workload, ledger, log)
        except Exception as exc:  # reported as a failed result, like a failed pass
            traceback.print_exc(file=sys.stderr)
            ledger.runs(1, 1, f"traced run raised {exc!r}")
            values = {}
        units = PER_LAYER
    else:
        values = measured_run(workload, args, ledger, log)
        units = END_TO_END
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    for name, metric in metrics.items():
        log.append(f"{name} = {metric['value']:.6g} {metric['unit']}")
    log.append(f"error_rate {ledger.error_rate:.4f} "
               f"({ledger.failed} failed of {ledger.attempted} runs and checks)")
    log.extend(ledger.failures)
    print("\n".join(log))
    complete = len(metrics) == len(units)
    print(json.dumps({
        "correct": complete and ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed if complete else max(1, ledger.failed),
        "metrics": metrics,
    }))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
