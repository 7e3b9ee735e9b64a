"""Metric names, units and the statistics the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names and units;
the smoke test keeps the two in step.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

#: End-to-end metrics (``--trace 0``), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_mcycles_per_s": "Mcycles/s",
    "run_ms_p50": "ms",
    "run_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

#: Layers whose self time is also reported per executed simulated cycle.
PER_CYCLE_LAYERS = ("sim", "cpu", "bus", "arbiters", "core", "cache", "memory")

#: Per-layer metrics (``--trace 1``), name -> unit.
PER_LAYER = {
    "bus.self_s": "s",
    "bus.grants": "count",
    "bus.idle_pending_cycles": "cycles",
    "bus.monitor_s": "s",
    "arbiters.arbitrate_s": "s",
    "arbiters.arbitrate_calls": "count",
    "arbiters.grant_ratio": "ratio",
    "arbiters.next_grant_s": "s",
    "core.cba_update_s": "s",
    "core.cba_blocked_cycles": "cycles",
    "cache.l2_resolve_s": "s",
    "cache.l2_miss_rate": "ratio",
    "cache.l1_miss_rate": "ratio",
    "sim.scheduler_s": "s",
    "sim.executed_cycles": "cycles",
    "sim.skip_ratio": "ratio",
    "cpu.core_s": "s",
    "cpu.batched_item_ratio": "ratio",
    "platform.build_s": "s",
    "workloads.trace_build_s": "s",
    "workloads.contender_s": "s",
    "memory.transaction_s": "s",
    "memory.row_hit_ratio": "ratio",
    "memory.reordered_accesses": "count",
    "campaign.spawn_s": "s",
    "campaign.dispatch_s": "s",
    "campaign.simulate_s": "s",
    "campaign.result_s": "s",
    "campaign.store_s": "s",
    "campaign.context_cache_hit_ratio": "ratio",
    "mbpta.iid_ms": "ms",
    "mbpta.evt_fit_ms": "ms",
    "mbpta.pwcet_ms": "ms",
    "trace.overhead_ratio": "ratio",
    **{f"{layer}_us_per_exec_cycle": "us" for layer in PER_CYCLE_LAYERS},
    "paper_err.rp_con": "ratio",
    "paper_err.cba_con": "ratio",
    "paper_err.cba_iso_pp": "pp",
}

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With ten or fewer
    samples no such percentile exists and the maximum is returned as the
    100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


@dataclass
class Ledger:
    """Runs and output checks attempted, and how many failed."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def runs(self, attempted: int, failed: int, why: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(why or f"{failed} of {attempted} runs failed")

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {name}")

    @property
    def error_rate(self) -> float:
        return ratio(self.failed, self.attempted)


def median(values: list[float]) -> float:
    return float(statistics.median(values))
