"""Greedy dimension-wise shrinking of failing fuzz scenarios.

Given a scenario that violates an invariant, the shrinker walks a fixed list
of simplifying transformations — fewer cores, shorter traces, zeroed
workload fractions, deterministic caches, the fixed memory model,
homogeneous CBA, CBA off — and greedily accepts any candidate that still
violates the *same* invariant, repeating until a full pass accepts nothing
or the re-execution budget is spent.  There is no randomness anywhere: the
shrunk scenario is a pure function of the failing scenario (itself a pure
function of the fuzzer seed), so two machines shrink one failure to the same
repro file.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator

from ..sim.config import CBAParameters, MemoryConfig
from ..sim.errors import SimulationError
from ..workloads.base import AddressPattern, WorkloadSpec
from .harness import InvariantViolation, PerturbHook, check_scenario
from .space import FuzzScenario

__all__ = ["shrink_scenario"]


def _shrunk_workload(spec: WorkloadSpec) -> Iterator[WorkloadSpec]:
    """Candidate simplifications of one workload, most aggressive first."""
    if spec.num_accesses > 10:
        yield replace(spec, num_accesses=max(10, spec.num_accesses // 2))
    if spec.pattern != AddressPattern.SEQUENTIAL:
        yield replace(spec, pattern=AddressPattern.SEQUENTIAL)
    if spec.gap_variability:
        yield replace(spec, gap_variability=0.0)
    if spec.atomic_fraction:
        yield replace(spec, atomic_fraction=0.0)
    if spec.hot_fraction:
        yield replace(spec, hot_fraction=0.0)
    if spec.write_fraction:
        yield replace(spec, write_fraction=0.0)
    if spec.tail_compute_cycles:
        yield replace(spec, tail_compute_cycles=0)
    if spec.mean_compute_gap:
        yield replace(spec, mean_compute_gap=0.0)


def _with_config(scenario: FuzzScenario, **updates: object) -> FuzzScenario:
    return scenario.with_updates(config=scenario.config.with_updates(**updates))


def _fewer_cores(scenario: FuzzScenario) -> "FuzzScenario | None":
    """Drop to two cores, keeping the task under analysis on core 0."""
    config = scenario.config
    if config.num_cores <= 2:
        return None
    num_cores = 2
    kept = [(core, spec) for core, spec in scenario.workloads if core < num_cores]
    tua = scenario.tua_core if scenario.tua_core < num_cores else 0
    if tua not in {core for core, _spec in kept}:
        if not kept:
            return None
        tua = kept[0][0]
    new_config = config.with_updates(
        num_cores=num_cores,
        cba=CBAParameters(
            max_latency=config.cba.max_latency,
            num_cores=num_cores,
            initial_budget=config.cba.initial_budget,
        ),
    )
    return scenario.with_updates(config=new_config, workloads=tuple(kept), tua_core=tua)


def _candidates(scenario: FuzzScenario) -> Iterator[FuzzScenario]:
    """One full pass of candidate simplifications, in fixed order.

    Candidate *construction* can itself be invalid (dropping cores may break
    the partitioned-L2 divisibility, for instance); such candidates are
    silently skipped — they are rejected simplifications, nothing more.
    """

    def attempt(build: Callable[[], "FuzzScenario | None"]) -> "FuzzScenario | None":
        try:
            return build()
        except SimulationError:
            return None

    candidate = attempt(lambda: _fewer_cores(scenario))
    if candidate is not None:
        yield candidate
    for index, (core, spec) in enumerate(scenario.workloads):
        for smaller in _shrunk_workload(spec):
            workloads = list(scenario.workloads)
            workloads[index] = (core, smaller)
            candidate = attempt(
                lambda w=tuple(workloads): scenario.with_updates(workloads=w)
            )
            if candidate is not None:
                yield candidate
    if scenario.best_effort is not None:
        for smaller in _shrunk_workload(scenario.best_effort):
            candidate = attempt(
                lambda s=smaller: scenario.with_updates(best_effort=s)
            )
            if candidate is not None:
                yield candidate
    config = scenario.config
    builders: list[Callable[[], "FuzzScenario | None"]] = []
    if config.memory.model != "fixed":
        builders.append(lambda: _with_config(scenario, memory=MemoryConfig()))
    elif config.memory.controller_policy != "in_order":
        builders.append(
            lambda: _with_config(
                scenario, memory=replace(config.memory, controller_policy="in_order")
            )
        )
    cba = config.cba
    if cba.replenish_shares is not None or cba.budget_caps is not None:
        builders.append(
            lambda: _with_config(
                scenario,
                cba=CBAParameters(
                    max_latency=cba.max_latency,
                    num_cores=cba.num_cores,
                    initial_budget=cba.initial_budget,
                ),
            )
        )
    if config.use_cba:
        builders.append(lambda: _with_config(scenario, use_cba=False))
    if config.random_caches:
        builders.append(lambda: _with_config(scenario, random_caches=False))
    if config.store_buffer_entries:
        builders.append(lambda: _with_config(scenario, store_buffer_entries=0))
    if scenario.run_index:
        builders.append(lambda: scenario.with_updates(run_index=0))
    for build in builders:
        candidate = attempt(build)
        if candidate is not None:
            yield candidate


def shrink_scenario(
    scenario: FuzzScenario,
    violation: InvariantViolation,
    perturb: PerturbHook | None = None,
    max_attempts: int = 64,
) -> tuple[FuzzScenario, InvariantViolation, int]:
    """Greedily minimise ``scenario`` while it still fails the same invariant.

    Returns ``(shrunk, violation, attempts)`` — the smallest accepted
    scenario (its ``checks`` restricted to the failing invariant), the
    violation it produces, and how many candidate re-executions were spent.
    """
    failing = violation.invariant
    current = scenario.with_updates(checks=(failing,))
    current_violation = violation
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _candidates(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            try:
                found = check_scenario(candidate, perturb)
            except SimulationError:
                # An invalid simplification (e.g. geometry no longer divides)
                # is just a rejected candidate, not a shrink failure.
                continue
            if found and found[0].invariant == failing:
                current = candidate
                current_violation = found[0]
                improved = True
                break
    return current, current_violation, attempts
