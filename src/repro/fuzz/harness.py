"""Invariant checks the fuzzer runs against each drawn scenario.

Four invariant families, named by the strings a scenario's ``checks`` tuple
carries:

``"modes"``
    The scenario produces bit-identical results in all three kernel modes
    (:class:`~repro.sim.config.KernelMode`): stepping, fast-forward and
    production.  The compared snapshot is
    :meth:`~repro.platform.system.SystemResult.snapshot`, the one the
    equivalence matrices compare (execution cycles, per-core counters and
    request latencies, bus/arbiter/CBA statistics, cache miss rates, DRAM
    bank counters).

``"campaign"``
    Dispatching the scenario through the campaign engine yields identical
    samples from a serial executor and a two-worker process pool, and a
    store-backed resume re-executes nothing, appends no duplicate records and
    returns the same samples.

``"monotonicity"``
    Adding maximum contention never shortens the task under analysis
    (``CON >= ISO`` per run).  Only checked for configurations where it is a
    sound per-run property — see
    :func:`repro.fuzz.space.monotonicity_eligible`.

``"closed_form"``
    A lone task's run under CBA is its run without CBA replayed through
    the credit bank (:mod:`repro.platform.replay`): every request latency
    is the source's plus its replayed wait, and the execution and total
    cycles move by the waits' sum.  Only drawn for isolation scenarios
    under CBA on platforms :func:`~repro.platform.replay.replayable`
    admits.

Each check is deterministic given the scenario, so a failing scenario is a
self-contained reproduction.  ``run_mode`` accepts an optional ``perturb``
hook (called with the built system and the mode's value, e.g.
``"fast_forward"``, before running) — the
fuzzer's own mutation self-tests use it to break exactly one mode and assert
the harness notices.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable

from ..campaign.campaign import Campaign
from ..campaign.executor import SerialExecutor, create_executor
from ..campaign.jobs import CampaignJob, seed_block_jobs
from ..campaign.store import ArtifactStore
from ..platform.replay import cba_waits, grant_log
from ..platform.system import MulticoreSystem, SystemResult
from ..sim.config import KernelMode
from .space import FuzzScenario

__all__ = [
    "KernelMode",
    "KERNEL_MODES",
    "PRODUCTION_MODE",
    "InvariantViolation",
    "build_system",
    "run_mode",
    "check_modes",
    "check_campaign",
    "check_closed_form",
    "check_monotonicity",
    "check_scenario",
    "CHECKS",
]

PerturbHook = Callable[[MulticoreSystem, str], None]


#: The modes of the equivalence matrix, reference (stepping) first.
KERNEL_MODES = tuple(KernelMode)
#: The default mode.
PRODUCTION_MODE = KernelMode.PRODUCTION


@dataclass(frozen=True)
class InvariantViolation:
    """One invariant the scenario broke, with a human-readable detail."""

    invariant: str
    detail: str


# ----------------------------------------------------------------------
# Scenario execution
# ----------------------------------------------------------------------
def build_system(scenario: FuzzScenario, mode: KernelMode) -> MulticoreSystem:
    """Assemble the scenario's platform in the given kernel mode; the caller
    owns it and closes it."""
    system = MulticoreSystem(
        scenario.config,
        seed=scenario.seed,
        run_index=scenario.run_index,
        label=f"fuzz-{scenario.kind}",
        mode=mode,
    )
    kind = scenario.kind
    if kind == "multiprogram":
        for core, spec in scenario.workloads:
            system.add_task(core, spec)
        return system
    tua = scenario.tua_core
    system.add_task(tua, scenario.tua_workload)
    if kind == "max_contention":
        for core in range(scenario.config.num_cores):
            if core != tua:
                system.add_greedy_contender(core)
    elif kind == "wcet_estimation":
        for core in range(scenario.config.num_cores):
            if core != tua:
                system.add_wcet_contender(core, tua_core=tua)
        system.set_tua_initial_budget(tua, 0)
    elif kind == "mixed_criticality":
        best_effort = scenario.best_effort
        if best_effort is None:
            raise ValueError("mixed_criticality scenario without a best-effort spec")
        for core in range(scenario.config.num_cores):
            if core != tua:
                system.add_task(core, best_effort)
    return system


def run_mode(
    scenario: FuzzScenario,
    mode: KernelMode,
    perturb: PerturbHook | None = None,
) -> SystemResult:
    """Run the scenario in one kernel mode and return the system result."""
    with build_system(scenario, mode) as system:
        if perturb is not None:
            perturb(system, mode.value)
        return system.run(max_cycles=scenario.max_cycles, allow_truncation=True)


def _diff_keys(reference: dict[str, object], candidate: dict[str, object]) -> list[str]:
    return sorted(key for key in reference if candidate.get(key) != reference[key])


# ----------------------------------------------------------------------
# Invariant checks
# ----------------------------------------------------------------------
def check_modes(
    scenario: FuzzScenario, perturb: PerturbHook | None = None
) -> InvariantViolation | None:
    """All kernel modes must produce bit-identical snapshots."""
    reference_mode = KERNEL_MODES[0]
    tua = scenario.tua_core
    reference = run_mode(scenario, reference_mode, perturb).snapshot(tua)
    for mode in KERNEL_MODES[1:]:
        candidate = run_mode(scenario, mode, perturb).snapshot(tua)
        if candidate != reference:
            differing = _diff_keys(reference, candidate)
            parts = []
            for key in differing[:4]:
                parts.append(
                    f"{key}: {reference_mode.value}={reference[key]!r} "
                    f"{mode.value}={candidate[key]!r}"
                )
            return InvariantViolation(
                invariant="modes",
                detail=(
                    f"{mode.value} diverges from {reference_mode.value} "
                    f"on {', '.join(differing)} — " + "; ".join(parts)
                ),
            )
    return None


def _campaign_jobs(scenario: FuzzScenario, num_runs: int = 3) -> list[CampaignJob]:
    options: tuple[tuple[str, object], ...] = ()
    if scenario.kind == "mixed_criticality":
        options = (("best_effort", scenario.best_effort),)
    return seed_block_jobs(
        label=f"fuzz-{scenario.kind}",
        scenario=scenario.kind,
        seed=scenario.seed,
        num_runs=num_runs,
        workload=scenario.tua_workload,
        config=scenario.config,
        options=options,
        tua_core=scenario.tua_core,
        max_cycles=scenario.max_cycles,
    )


def _samples_by_job(results) -> dict[str, tuple[float, ...]]:
    return {job_id: result.samples for job_id, result in sorted(results.items())}


def check_campaign(
    scenario: FuzzScenario, perturb: PerturbHook | None = None
) -> InvariantViolation | None:
    """Serial == pool dispatch, and store-backed resume is duplicate-free.

    ``perturb`` is accepted for signature uniformity but unused: campaign
    dispatch goes through worker processes the hook cannot reach.
    """
    jobs = _campaign_jobs(scenario)
    serial = _samples_by_job(Campaign(executor=SerialExecutor()).run(jobs))
    pool = _samples_by_job(Campaign(executor=create_executor(2)).run(jobs))
    if pool != serial:
        return InvariantViolation(
            invariant="campaign",
            detail=f"pool samples diverge from serial: serial={serial} pool={pool}",
        )

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        store_path = f"{tmp}/store.jsonl"
        # First leg: one job lands in the store, then the campaign "dies".
        Campaign(store=ArtifactStore(store_path)).run(jobs[:1])
        # Resumed leg: must reuse the stored record and execute the rest.
        resumed = _samples_by_job(
            Campaign(store=ArtifactStore(store_path), resume=True).run(jobs)
        )
        with open(store_path, encoding="utf-8") as handle:
            stored_lines = sum(1 for line in handle if line.strip())
    unique_jobs = len({job.job_id for job in jobs})
    if resumed != serial:
        return InvariantViolation(
            invariant="campaign",
            detail=f"resumed samples diverge from serial: {resumed} != {serial}",
        )
    if stored_lines != unique_jobs:
        return InvariantViolation(
            invariant="campaign",
            detail=(
                f"resume appended duplicates: {stored_lines} store records "
                f"for {unique_jobs} unique jobs"
            ),
        )
    return None


def check_monotonicity(
    scenario: FuzzScenario, perturb: PerturbHook | None = None
) -> InvariantViolation | None:
    """Maximum contention never shortens the task under analysis."""
    isolation = scenario.with_updates(kind="isolation", checks=("monotonicity",))
    contended = scenario.with_updates(
        kind="max_contention",
        checks=("monotonicity",),
        workloads=((scenario.tua_core, scenario.tua_workload),),
        best_effort=None,
    )
    iso = run_mode(isolation, PRODUCTION_MODE, perturb)
    con = run_mode(contended, PRODUCTION_MODE, perturb)
    if iso.truncated or con.truncated:
        return None
    iso_cycles = iso.execution_cycles(scenario.tua_core)
    con_cycles = con.execution_cycles(scenario.tua_core)
    if con_cycles < iso_cycles:
        return InvariantViolation(
            invariant="monotonicity",
            detail=(
                f"contention shortened the TuA: isolation={iso_cycles} "
                f"max_contention={con_cycles}"
            ),
        )
    return None


def check_closed_form(
    scenario: FuzzScenario, perturb: PerturbHook | None = None
) -> InvariantViolation | None:
    """The CBA isolation run equals the replay of its run without CBA."""
    tua = scenario.tua_core
    source_scenario = scenario.with_updates(
        config=scenario.config.with_updates(use_cba=False)
    )
    with build_system(source_scenario, PRODUCTION_MODE) as system:
        if perturb is not None:
            perturb(system, PRODUCTION_MODE.value)
        source = system.run(max_cycles=scenario.max_cycles, allow_truncation=True)
        holder_log = system.bus.holder_log
    if source.truncated:
        return None
    latencies = source.core_counters[tua].request_latencies
    log = grant_log(holder_log, tua, latencies)
    if log is None:
        return InvariantViolation(
            invariant="closed_form",
            detail="a request of the lone task waited for its grant without CBA",
        )
    waits = cba_waits(log, scenario.config.cba, tua)
    shift = sum(waits)
    if source.total_cycles + shift >= scenario.max_cycles:
        return None
    simulated = run_mode(scenario, PRODUCTION_MODE, perturb)
    expected = {
        "truncated": False,
        "tua_cycles": source.execution_cycles(tua) + shift,
        "total_cycles": source.total_cycles + shift,
        "request_latencies": [latency + wait for latency, wait in zip(latencies, waits)],
    }
    actual = {
        "truncated": simulated.truncated,
        "tua_cycles": simulated.execution_cycles(tua),
        "total_cycles": simulated.total_cycles,
        "request_latencies": list(simulated.core_counters[tua].request_latencies),
    }
    differing = _diff_keys(expected, actual)
    if differing:
        return InvariantViolation(
            invariant="closed_form",
            detail="replay diverges from the simulated CBA run on "
            + ", ".join(
                f"{key}: replay={expected[key]!r} simulated={actual[key]!r}"
                for key in differing
            ),
        )
    return None


CHECKS: dict[str, Callable[..., InvariantViolation | None]] = {
    "modes": check_modes,
    "campaign": check_campaign,
    "monotonicity": check_monotonicity,
    "closed_form": check_closed_form,
}


def check_scenario(
    scenario: FuzzScenario, perturb: PerturbHook | None = None
) -> list[InvariantViolation]:
    """Run the scenario's checks in order; stop at the first violation."""
    for name in scenario.checks:
        try:
            check = CHECKS[name]
        except KeyError:
            raise ValueError(f"unknown fuzz invariant {name!r}") from None
        violation = check(scenario, perturb)
        if violation is not None:
            return [violation]
    return []
