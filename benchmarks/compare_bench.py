"""CI regression gate over the benchmark reports.

Compares freshly produced ``BENCH_kernel.json``/``BENCH_campaign.json``
reports against hard same-process bounds and against the committed
baselines, exiting non-zero on a regression.  Moving the gate here (out of
``bench_kernel.py``'s process) makes it reusable — CI, local runs and other
harnesses all call the same checks — and lets the gate reason about the
*committed* baseline, not only the current process.

Two kinds of check, chosen for robustness across machines:

* **same-process gates** (current report only): wall-clock ratios between
  modes measured in one process on one machine — production must stay
  within ``factor`` of fast-forward (which differs from it only by the batch
  interpreter) on every tracked scenario; every scenario must be
  bit-identical; the campaign's pool executor must be
  bit-identical to serial and MBPTA post-processing under its latency
  budget.
* **baseline diffs** (current vs committed): absolute wall clocks are
  machine-dependent (the committed baseline comes from a developer machine,
  the current report from a CI runner), so the gated quantity is the
  *normalised throughput* of each tracked scenario — its production
  Mcycles/s divided by the same process's stepping Mcycles/s — which cancels
  machine speed.  A tracked scenario failing ``current >= baseline/factor``
  fails the gate; so does the campaign's ``speedup_pool_vs_serial`` (itself
  a same-process ratio) dropping below the committed baseline by more than
  the factor — unless the current machine has fewer CPUs than the baseline
  machine, in which case the speedup delta is informational.  Everything
  else is printed as an informational delta, among them the MBPTA cold
  start (``mbpta_cold_start_ms``: a fresh interpreter's import plus one
  analysis) and the kernel report's per-run ``setup`` block (platform
  build, trace build per Figure 1 benchmark, gen-0 GC passes, cyclic
  objects and core ticks per bus request per production run), each shown
  as ``n/a`` where a report predates it.

Usage (what the CI bench job runs)::

    python benchmarks/bench_kernel.py --quick --output BENCH_kernel.new.json
    python benchmarks/bench_campaign.py --quick --output BENCH_campaign.new.json
    python benchmarks/compare_bench.py \
        --kernel-current BENCH_kernel.new.json \
        --kernel-baseline BENCH_kernel.json \
        --campaign-current BENCH_campaign.new.json \
        --campaign-baseline BENCH_campaign.json
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Any

from common import REGRESSION_FACTOR, load_report, tracked_scenarios


def _normalised_throughput(entry: dict[str, Any]) -> float | None:
    """Production throughput over stepping throughput (machine-neutral).

    Falls back through the default-mode columns of older reports (the
    event-queue, then the batch column) so they still diff cleanly.
    """
    stepping = entry.get("mcycles_per_s_stepping")
    default = (
        entry.get("mcycles_per_s_production")
        or entry.get("mcycles_per_s_event_queue")
        or entry.get("mcycles_per_s_batch")
    )
    if not stepping or not default:
        return None
    return default / stepping


def check_kernel_current(report: dict[str, Any], factor: float) -> list[str]:
    """Same-process gates on a fresh kernel report."""
    failures = []
    for name, entry in report.get("scenarios", {}).items():
        if not entry.get("bit_identical", False):
            failures.append(f"kernel/{name}: modes are not bit-identical")
    untracked = sorted(set(report.get("scenarios", {})) - set(tracked_scenarios(report)))
    if untracked:
        print(
            "scenarios excluded from wall-clock gating (untracked prefix): "
            + ", ".join(untracked)
        )
    for name, entry in tracked_scenarios(report).items():
        production = entry.get("wall_s_production")
        fast_forward = entry.get("wall_s_fast_forward")
        if (
            production is not None
            and fast_forward is not None
            and production > factor * fast_forward
        ):
            failures.append(
                f"kernel/{name}: production path {production:.3f}s is more than "
                f"{factor:.2f}x the fast-forward baseline {fast_forward:.3f}s"
            )
    return failures


def check_kernel_baseline(
    current: dict[str, Any], baseline: dict[str, Any], factor: float
) -> list[str]:
    """Normalised-throughput diff of the tracked scenarios vs the baseline.

    Only gating when both reports ran the same workload size: normalised
    throughput cancels machine speed but not workload size (smaller traces
    carry proportionally more fixed per-run cost), so a ``--quick`` report
    diffed against a full-size baseline is informational only.
    """
    failures = []
    if current.get("accesses") != baseline.get("accesses"):
        print(
            "\nbaseline diff skipped: workload sizes differ "
            f"(current accesses={current.get('accesses')}, "
            f"baseline accesses={baseline.get('accesses')}) — "
            "normalised throughput is only comparable at equal size"
        )
        return failures
    baseline_tracked = tracked_scenarios(baseline)
    current_tracked = tracked_scenarios(current)
    # A tracked scenario present in the committed baseline but absent from
    # the fresh report silently shrinks the gate's coverage — say so.
    for name in sorted(set(baseline_tracked) - set(current_tracked)):
        print(
            f"  {name:50s} DROPPED from comparison "
            "(in committed baseline, missing from current report)"
        )
    print("\ntracked scenarios vs committed baseline (normalised throughput):")
    for name, entry in current_tracked.items():
        base_entry = baseline_tracked.get(name)
        if base_entry is None:
            print(f"  {name:50s} (new scenario, no baseline)")
            continue
        now = _normalised_throughput(entry)
        then = _normalised_throughput(base_entry)
        if now is None or then is None:
            print(f"  {name:50s} (incomparable schemas)")
            continue
        verdict = "ok" if now >= then / factor else "REGRESSED"
        print(f"  {name:50s} baseline {then:6.2f}x  current {now:6.2f}x  {verdict}")
        if verdict != "ok":
            failures.append(
                f"kernel/{name}: normalised throughput fell from {then:.2f}x "
                f"to {now:.2f}x (allowed floor {then / factor:.2f}x)"
            )
    return failures


def print_setup(current: dict[str, Any], baseline: dict[str, Any] | None) -> None:
    """Print the kernel reports' per-run ``setup`` blocks side by side.

    Informational only: the block holds absolute, machine-dependent times.
    """
    now = current.get("setup", {})
    then = (baseline or {}).get("setup", {})
    rows = [("platform build", "platform_build_ms", None, "ms")]
    for section, label, unit in (
        ("trace_build_ms", "trace build", "ms"),
        ("gc_gen0_per_production_run", "gen-0 GC per production run", ""),
        ("cyclic_objects_per_run", "cyclic objects per run", ""),
        ("core_ticks_per_bus_request", "core ticks per bus request", ""),
    ):
        names = sorted(set(now.get(section, {})) | set(then.get(section, {})))
        rows += [(f"{label} {name}", section, name, unit) for name in names]

    def show(block: dict[str, Any], key: str, name: str | None, unit: str) -> str:
        value = block.get(key)
        if name is not None:
            value = (value or {}).get(name)
        return "n/a" if value is None else f"{value}{unit}"

    print("\nper-run set-up vs committed baseline (informational):")
    for label, key, name, unit in rows:
        print(f"  {label:40s} {show(then, key, name, unit)} -> {show(now, key, name, unit)}")


def check_campaign_current(report: dict[str, Any]) -> list[str]:
    """Same-process gates on a fresh campaign report."""
    failures = []
    campaign = report.get("campaign", {})
    if not campaign.get("bit_identical", False):
        failures.append("campaign: pool executor is not bit-identical to serial")
    mbpta = report.get("mbpta_post_1000_samples", {})
    if not mbpta.get("under_50ms", False):
        failures.append(
            f"campaign: MBPTA post-processing of 1000 samples took "
            f"{mbpta.get('total_ms', float('nan'))} ms (budget 50 ms)"
        )
    return failures


def diff_campaign_baseline(
    current: dict[str, Any], baseline: dict[str, Any], factor: float
) -> list[str]:
    """Gate ``speedup_pool_vs_serial`` against the committed baseline.

    The speedup is a same-process ratio (pool and serial measured back to
    back on one machine), so unlike absolute wall clocks it diffs cleanly
    against the committed value — *except* across different degrees of
    hardware parallelism.  When the current runner has fewer CPUs than the
    baseline machine the comparison is printed informationally instead of
    gated (a 1-CPU container cannot reproduce a multi-core speedup, and
    failing CI over core count would gate the machine, not the code).
    """
    failures: list[str] = []
    now = current.get("campaign", {})
    then = baseline.get("campaign", {})
    cold_then, cold_now = (
        f"{report['mbpta_cold_start_ms']}ms" if "mbpta_cold_start_ms" in report else "n/a"
        for report in (baseline, current)
    )
    print(
        "\ncampaign vs committed baseline: "
        f"serial {then.get('wall_s_serial')}s -> {now.get('wall_s_serial')}s, "
        f"pool {then.get('wall_s_pool')}s -> {now.get('wall_s_pool')}s, "
        f"mbpta total {baseline.get('mbpta_post_1000_samples', {}).get('total_ms')}ms "
        f"-> {current.get('mbpta_post_1000_samples', {}).get('total_ms')}ms, "
        f"mbpta cold start {cold_then} -> {cold_now}"
    )
    speedup_now = now.get("speedup_pool_vs_serial")
    speedup_then = then.get("speedup_pool_vs_serial")
    if speedup_now is None or speedup_then is None:
        print("campaign speedup gate skipped: speedup missing from a report")
        return failures
    cpus_now = now.get("cpu_count")
    cpus_then = then.get("cpu_count")
    if cpus_now is not None and cpus_then is not None and cpus_now < cpus_then:
        print(
            f"campaign speedup gate skipped: current machine has {cpus_now} "
            f"CPUs vs {cpus_then} at baseline "
            f"(speedup {speedup_then} -> {speedup_now}, informational)"
        )
        return failures
    floor = speedup_then / factor
    verdict = "ok" if speedup_now >= floor else "REGRESSED"
    print(
        f"campaign speedup_pool_vs_serial: baseline {speedup_then:.3f}x  "
        f"current {speedup_now:.3f}x  (floor {floor:.3f}x)  {verdict}"
    )
    if verdict != "ok":
        failures.append(
            f"campaign: pool speedup fell from {speedup_then:.3f}x to "
            f"{speedup_now:.3f}x (allowed floor {floor:.3f}x)"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel-current", type=Path, required=True)
    parser.add_argument("--kernel-baseline", type=Path, default=None)
    parser.add_argument("--campaign-current", type=Path, default=None)
    parser.add_argument("--campaign-baseline", type=Path, default=None)
    parser.add_argument(
        "--factor", type=float, default=REGRESSION_FACTOR,
        help=f"allowed slowdown factor (default: {REGRESSION_FACTOR})",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []

    kernel_current = load_report(args.kernel_current)
    failures += check_kernel_current(kernel_current, args.factor)
    kernel_baseline = None
    if args.kernel_baseline is not None and args.kernel_baseline.exists():
        kernel_baseline = load_report(args.kernel_baseline)
        failures += check_kernel_baseline(kernel_current, kernel_baseline, args.factor)
    print_setup(kernel_current, kernel_baseline)

    if args.campaign_current is not None:
        campaign_current = load_report(args.campaign_current)
        failures += check_campaign_current(campaign_current)
        if args.campaign_baseline is not None and args.campaign_baseline.exists():
            failures += diff_campaign_baseline(
                campaign_current, load_report(args.campaign_baseline), args.factor
            )

    if failures:
        print("\nREGRESSION GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nregression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
