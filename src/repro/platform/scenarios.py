"""Standard execution scenarios.

The paper evaluates every benchmark under two scenarios per bus
configuration:

* **isolation (ISO)** — the task under analysis runs alone on the multicore;
* **maximum contention (CON)** — the other cores host worst-case contenders
  that keep maximum-length requests pending.

This module provides the scenario runners used by the experiments, plus a
multiprogram scenario (several real tasks consolidated together) used by the
examples and the fairness analyses.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from enum import Enum

from ..sim.config import KernelMode, PlatformConfig
from ..workloads.base import WorkloadSpec
from .system import MulticoreSystem, SystemResult

__all__ = [
    "Scenario",
    "ScenarioResult",
    "run_isolation",
    "run_max_contention",
    "run_wcet_estimation",
    "run_multiprogram",
    "run_mixed_criticality",
]


class Scenario(str, Enum):
    """Named execution scenarios."""

    ISOLATION = "isolation"
    MAX_CONTENTION = "max_contention"
    WCET_ESTIMATION = "wcet_estimation"
    MULTIPROGRAM = "multiprogram"
    MIXED_CRITICALITY = "mixed_criticality"


@dataclass(frozen=True)
class ScenarioResult:
    """Execution time of the task under analysis plus the full system result."""

    scenario: Scenario
    tua_core: int
    tua_cycles: int
    system: SystemResult
    #: True when the simulation stopped at the cycle budget before the tasks
    #: completed.  ``tua_cycles`` is then meaningless (0 if the task under
    #: analysis never finished) and must not enter execution-time statistics.
    truncated: bool = False
    #: The bus's holder changes (:attr:`~repro.bus.bus.SharedBus.holder_log`),
    #: kept by :func:`run_isolation` only: the grant log
    #: :mod:`repro.platform.replay` derives CBA isolation runs from.
    holder_log: array = field(default_factory=lambda: array("q"), compare=False, repr=False)

    def snapshot(self) -> dict[str, object]:
        """:meth:`SystemResult.snapshot` of the run, for the task under analysis."""
        return self.system.snapshot(self.tua_core)


def run_isolation(
    workload: WorkloadSpec,
    config: PlatformConfig,
    seed: int = 0,
    run_index: int = 0,
    tua_core: int = 0,
    max_cycles: int = 5_000_000,
    allow_truncation: bool = False,
    mode: KernelMode = KernelMode.PRODUCTION,
) -> ScenarioResult:
    """Run ``workload`` alone on the platform (the ``*-ISO`` bars of Figure 1).

    Note that even in isolation CBA can delay the task: a request issued
    before the core has recovered a full budget waits, which is the isolation
    overhead the paper quantifies at ~3% on average.
    """
    with MulticoreSystem(
        config,
        seed=seed,
        run_index=run_index,
        label=f"{config.arbitration}-iso",
        mode=mode,
    ) as system:
        system.add_task(tua_core, workload)
        result = system.run(max_cycles=max_cycles, allow_truncation=allow_truncation)
    return ScenarioResult(
        scenario=Scenario.ISOLATION,
        tua_core=tua_core,
        tua_cycles=result.execution_cycles(tua_core),
        system=result,
        truncated=result.truncated,
        holder_log=system.bus.holder_log,
    )


def run_max_contention(
    workload: WorkloadSpec,
    config: PlatformConfig,
    seed: int = 0,
    run_index: int = 0,
    tua_core: int = 0,
    max_cycles: int = 5_000_000,
    allow_truncation: bool = False,
    mode: KernelMode = KernelMode.PRODUCTION,
) -> ScenarioResult:
    """Run ``workload`` against greedy maximum-length contenders (``*-CON``)."""
    with MulticoreSystem(
        config,
        seed=seed,
        run_index=run_index,
        label=f"{config.arbitration}-con",
        mode=mode,
    ) as system:
        system.add_task(tua_core, workload)
        for core in range(config.num_cores):
            if core != tua_core:
                system.add_greedy_contender(core)
        result = system.run(max_cycles=max_cycles, allow_truncation=allow_truncation)
    return ScenarioResult(
        scenario=Scenario.MAX_CONTENTION,
        tua_core=tua_core,
        tua_cycles=result.execution_cycles(tua_core),
        system=result,
        truncated=result.truncated,
    )


def run_wcet_estimation(
    workload: WorkloadSpec,
    config: PlatformConfig,
    seed: int = 0,
    run_index: int = 0,
    tua_core: int = 0,
    max_cycles: int = 5_000_000,
    allow_truncation: bool = False,
    mode: KernelMode = KernelMode.PRODUCTION,
) -> ScenarioResult:
    """Run the analysis-time scenario of Section III-B / Table I.

    The task under analysis starts with zero budget; the contender cores run
    the WCET-estimation-mode request generators (request lines always set,
    compete only when their budget is full and the TuA has a request ready,
    hold the bus for ``MaxL`` when granted).
    """
    with MulticoreSystem(
        config,
        seed=seed,
        run_index=run_index,
        label=f"{config.arbitration}-wcet",
        mode=mode,
    ) as system:
        system.add_task(tua_core, workload)
        for core in range(config.num_cores):
            if core != tua_core:
                system.add_wcet_contender(core, tua_core=tua_core)
        system.set_tua_initial_budget(tua_core, 0)
        result = system.run(max_cycles=max_cycles, allow_truncation=allow_truncation)
    return ScenarioResult(
        scenario=Scenario.WCET_ESTIMATION,
        tua_core=tua_core,
        tua_cycles=result.execution_cycles(tua_core),
        system=result,
        truncated=result.truncated,
    )


def run_mixed_criticality(
    workload: WorkloadSpec,
    config: PlatformConfig,
    seed: int = 0,
    run_index: int = 0,
    tua_core: int = 0,
    max_cycles: int = 10_000_000,
    allow_truncation: bool = False,
    best_effort: "WorkloadSpec | str | None" = None,
    mode: KernelMode = KernelMode.PRODUCTION,
) -> ScenarioResult:
    """Run a critical task against best-effort tasks on every other core.

    The mixed-criticality consolidation the paper motivates: the critical
    task (under CBA its budget bounds the interference it can suffer) shares
    the platform with best-effort programs that are real workloads — unlike
    the synthetic worst-case contenders of ``run_max_contention`` they
    compute, hit their caches and finish.  The run stops when every task is
    done, and ``tua_cycles`` measures the critical task only.

    ``best_effort`` picks the program for the non-critical cores: a
    :class:`~repro.workloads.base.WorkloadSpec`, the name of a synthetic
    builder (resolved via :func:`repro.workloads.synthetic.synthetic_workload`),
    or ``None`` for the default bus-heavy mix.
    """
    from ..workloads.synthetic import bus_hog_workload, synthetic_workload

    if best_effort is None:
        contender_spec = bus_hog_workload()
    elif isinstance(best_effort, str):
        contender_spec = synthetic_workload(best_effort)
    else:
        contender_spec = best_effort
    with MulticoreSystem(
        config,
        seed=seed,
        run_index=run_index,
        label=f"{config.arbitration}-mixed",
        mode=mode,
    ) as system:
        system.add_task(tua_core, workload)
        for core in range(config.num_cores):
            if core != tua_core:
                system.add_task(core, contender_spec)
        result = system.run(max_cycles=max_cycles, allow_truncation=allow_truncation)
    return ScenarioResult(
        scenario=Scenario.MIXED_CRITICALITY,
        tua_core=tua_core,
        tua_cycles=result.execution_cycles(tua_core),
        system=result,
        truncated=result.truncated,
    )


def run_multiprogram(
    workloads: dict[int, WorkloadSpec],
    config: PlatformConfig,
    seed: int = 0,
    run_index: int = 0,
    tua_core: int = 0,
    max_cycles: int = 10_000_000,
    allow_truncation: bool = False,
    mode: KernelMode = KernelMode.PRODUCTION,
) -> ScenarioResult:
    """Consolidate several real tasks (one per core) and run them together."""
    with MulticoreSystem(
        config,
        seed=seed,
        run_index=run_index,
        label=f"{config.arbitration}-multi",
        mode=mode,
    ) as system:
        for core_id, workload in workloads.items():
            system.add_task(core_id, workload)
        result = system.run(max_cycles=max_cycles, allow_truncation=allow_truncation)
    tua_cycles = result.execution_cycles(tua_core) if tua_core in workloads else 0
    return ScenarioResult(
        scenario=Scenario.MULTIPROGRAM,
        tua_core=tua_core,
        tua_cycles=tua_cycles,
        system=result,
        truncated=result.truncated,
    )
