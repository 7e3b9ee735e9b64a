"""The fuzzer's scenario space: drawing, validating and (de)serialising.

A :class:`FuzzScenario` is one self-contained point of the configuration
space the property-based fuzzer explores: a platform configuration (cores,
cache geometry and policies, arbiter, CBA, memory model), the workloads
placed on the cores, the scenario kind that wires them together, the
simulation seed, and the list of invariants the harness checks against it.

Everything is drawn from a seeded ``numpy`` generator — the scenario reached
by ``(master_seed, iteration)`` is a pure function of those two integers —
and round-trips losslessly through canonical JSON, which is what makes
failures replayable from a committed repro file.

The drawn dimensions are curated discrete sets rather than free integers so
every combination is *valid by construction* (cache sizes divide evenly,
``MaxL`` covers the worst transaction of whichever memory model was drawn,
partitioned L2 sets divide by the core count); :func:`test_validity
<tests.fuzz.test_space>` locks that property.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Mapping

import numpy as np

from ..core.hcba import heterogeneous_share_parameters
from ..sim.config import (
    BusTimings,
    CacheGeometry,
    CBAParameters,
    MemoryConfig,
    PlatformConfig,
)
from ..sim.errors import ConfigurationError
from ..workloads.base import AddressPattern, WorkloadSpec

__all__ = [
    "FuzzScenario",
    "ARBITER_POLICIES",
    "DETERMINISTIC_ARBITERS",
    "SCENARIO_KINDS",
    "draw_scenario",
    "monotonicity_eligible",
    "canonical_json",
    "scenario_to_dict",
    "scenario_from_dict",
    "config_to_dict",
    "config_from_dict",
    "workload_to_dict",
    "workload_from_dict",
]


#: Every arbiter the registry knows; the fuzzer draws uniformly across them.
ARBITER_POLICIES = (
    "fifo",
    "round_robin",
    "tdma",
    "fixed_priority",
    "lottery",
    "random_permutations",
)
#: Arbiters whose grant schedule is a pure function of the request pattern.
#: Only these make per-run contention monotonicity a sound invariant — the
#: randomised arbiters draw from a shared stream, so adding contenders
#: changes the draw sequence and a single run pair proves nothing.
DETERMINISTIC_ARBITERS = frozenset({"fifo", "round_robin", "tdma", "fixed_priority"})
#: Scenario kinds the harness can wire up.
SCENARIO_KINDS = (
    "isolation",
    "max_contention",
    "wcet_estimation",
    "multiprogram",
    "mixed_criticality",
)
#: H-CBA variants (Section III-A) drawn on top of CBA: uneven replenishment
#: shares, budget caps above the full budget, or both.
HCBA_VARIANTS = ("homogeneous", "shares", "caps", "shares+caps")
#: The favoured core's fraction of the total replenishment (the paper's
#: Figure 1 H-CBA gives the task under analysis 1/2).
HCBA_FAVOURED_FRACTIONS = (Fraction(1, 2), Fraction(2, 3), Fraction(1, 5))
#: The favoured core's budget cap as a multiple of the scaled full budget.
HCBA_CAP_FACTORS = (Fraction(3, 2), Fraction(2), Fraction(3))
#: Kinds that place contenders/tasks beside the task under analysis.
CONTENDED_KINDS = frozenset(
    {"max_contention", "wcet_estimation", "multiprogram", "mixed_criticality"}
)


@dataclass(frozen=True)
class FuzzScenario:
    """One fully-specified point of the fuzzed configuration space."""

    #: Scenario kind (one of :data:`SCENARIO_KINDS`).
    kind: str
    #: Simulation seed / run index handed to the scenario runner.
    seed: int
    run_index: int
    tua_core: int
    max_cycles: int
    config: PlatformConfig
    #: ``(core_id, spec)`` pairs, sorted by core; the task under analysis is
    #: the entry for :attr:`tua_core`.  Multiprogram kinds carry one spec per
    #: core, every other kind exactly one.
    workloads: tuple[tuple[int, WorkloadSpec], ...]
    #: Best-effort program for the non-critical cores (mixed criticality).
    best_effort: WorkloadSpec | None = None
    #: Invariants the harness checks, in order (see :mod:`repro.fuzz.harness`).
    checks: tuple[str, ...] = ("modes",)

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(f"unknown fuzz scenario kind {self.kind!r}")
        if not self.workloads:
            raise ConfigurationError("a fuzz scenario needs at least one workload")
        cores = [core for core, _spec in self.workloads]
        if cores != sorted(cores) or len(set(cores)) != len(cores):
            raise ConfigurationError("workloads must be sorted by core and unique")
        if self.tua_core not in set(cores):
            raise ConfigurationError("the task under analysis has no workload")
        if any(not 0 <= core < self.config.num_cores for core in cores):
            raise ConfigurationError("workload core out of range")

    @property
    def tua_workload(self) -> WorkloadSpec:
        for core, spec in self.workloads:
            if core == self.tua_core:
                return spec
        raise ConfigurationError("the task under analysis has no workload")

    @property
    def workloads_by_core(self) -> dict[int, WorkloadSpec]:
        return dict(self.workloads)

    def with_updates(self, **kwargs: object) -> "FuzzScenario":
        return replace(self, **kwargs)


# ----------------------------------------------------------------------
# Drawing
# ----------------------------------------------------------------------
def _choice(rng: np.random.Generator, options):
    """Uniform pick from a sequence (index drawn, so options stay ordered)."""
    return options[int(rng.integers(0, len(options)))]


def _draw_workload(rng: np.random.Generator, name: str) -> WorkloadSpec:
    write_fraction = _choice(rng, (0.0, 0.2, 0.5))
    return WorkloadSpec(
        name=name,
        num_accesses=int(rng.integers(30, 161)),
        working_set_bytes=_choice(rng, (2 * 1024, 8 * 1024, 32 * 1024, 64 * 1024)),
        mean_compute_gap=_choice(rng, (0.0, 1.0, 4.0)),
        gap_variability=_choice(rng, (0.0, 0.5, 1.0)),
        pattern=_choice(rng, AddressPattern.ALL),
        stride_bytes=_choice(rng, (16, 32, 64)),
        write_fraction=write_fraction,
        atomic_fraction=_choice(rng, (0.0, 0.05)),
        hot_fraction=_choice(rng, (0.0, 0.3)),
        hot_region_bytes=512,
        tail_compute_cycles=_choice(rng, (0, 16)),
        description="fuzzer-drawn workload",
    )


def _draw_config(rng: np.random.Generator) -> PlatformConfig:
    num_cores = int(_choice(rng, (2, 3, 4)))
    line_bytes = int(_choice(rng, (16, 32)))

    l1_assoc = int(_choice(rng, (2, 4)))
    l1_sets = int(_choice(rng, (8, 16, 32)))
    l1_geometry = CacheGeometry(
        size_bytes=line_bytes * l1_assoc * l1_sets,
        line_bytes=line_bytes,
        associativity=l1_assoc,
    )

    l2_partitioned = bool(_choice(rng, (True, True, True, False)))
    l2_assoc = int(_choice(rng, (2, 4)))
    # Partitioned L2 sets must split evenly across cores, so draw the
    # per-core set count and multiply; the unified draw needs no constraint.
    sets_per_core = int(_choice(rng, (8, 16, 32)))
    l2_sets = num_cores * sets_per_core if l2_partitioned else int(_choice(rng, (32, 64, 128)))
    l2_geometry = CacheGeometry(
        size_bytes=line_bytes * l2_assoc * l2_sets,
        line_bytes=line_bytes,
        associativity=l2_assoc,
    )

    bus_overhead = int(_choice(rng, (0, 1)))
    memory_latency = int(_choice(rng, (20, 28)))
    max_latency = 2 * memory_latency + bus_overhead
    bus_timings = BusTimings(
        memory_latency=memory_latency,
        bus_overhead=bus_overhead,
        max_latency=max_latency,
    )

    model = _choice(rng, ("fixed", "banked", "banked"))
    if model == "banked":
        # MaxL covers 2 * conflict + overhead by making the conflict latency
        # the drawn memory latency; hit/miss are drawn below it.
        conflict = memory_latency
        hit = int(_choice(rng, (8, 12, 16)))
        miss = int(_choice(rng, tuple(m for m in (16, 20, 24) if hit <= m <= conflict)))
        memory = MemoryConfig(
            model="banked",
            num_banks=int(_choice(rng, (2, 4, 8))),
            row_bytes=int(_choice(rng, (512, 1024, 2048))),
            row_hit_latency=hit,
            row_miss_latency=miss,
            row_conflict_latency=conflict,
            controller_policy=_choice(rng, ("in_order", "frfcfs")),
        )
    else:
        memory = MemoryConfig()

    use_cba = bool(_choice(rng, (True, False)))
    return PlatformConfig(
        num_cores=num_cores,
        arbitration=_choice(rng, ARBITER_POLICIES),
        use_cba=use_cba,
        cba=CBAParameters(max_latency=max_latency, num_cores=num_cores),
        bus_timings=bus_timings,
        l1_geometry=l1_geometry,
        l2_geometry=l2_geometry,
        l2_partitioned=l2_partitioned,
        random_caches=bool(_choice(rng, (True, False))),
        store_buffer_entries=int(_choice(rng, (0, 0, 2))),
        memory=memory,
    )


def _draw_hcba(
    rng: np.random.Generator, cba: CBAParameters, favoured_core: int
) -> CBAParameters:
    """Draw an H-CBA variant of ``cba`` favouring ``favoured_core``.

    Shares come from :func:`~repro.core.hcba.heterogeneous_share_parameters`,
    which keeps every share positive; caps are at least the scaled full
    budget of the drawn shares, so every draw is valid by construction.
    """
    variant = _choice(rng, HCBA_VARIANTS)
    if "shares" in variant:
        cba = heterogeneous_share_parameters(
            cba.num_cores,
            cba.max_latency,
            favoured_core,
            _choice(rng, HCBA_FAVOURED_FRACTIONS),
        )
    if "caps" in variant:
        full = cba.scaled_full_budget
        favoured_cap = int(full * _choice(rng, HCBA_CAP_FACTORS))
        cba = replace(
            cba,
            budget_caps=tuple(
                favoured_cap if core == favoured_core else full
                for core in range(cba.num_cores)
            ),
        )
    return cba


def monotonicity_eligible(config: PlatformConfig) -> bool:
    """Whether per-run contention monotonicity is a sound invariant here.

    Adding contenders must never *reduce* the task under analysis' execution
    time — but only when nothing else changes between the two runs:

    * the arbiter must be deterministic (the randomised arbiters consume a
      shared stream whose draws shift when contenders join);
    * the caches must be deterministic (random replacement draws from the
      shared ``"l2"`` stream, which contender accesses interleave);
    * the L2 must be partitioned (a unified L2 lets contenders evict the
      TuA's dirty lines, which can *shorten* later TuA transactions);
    * the memory model must be fixed (shared DRAM row buffers mean contender
      accesses can leave rows open that speed the TuA up);
    * stores must be blocking (a store buffer overlaps its drain with
      compute, so added waits can hide instead of accumulate).

    H-CBA stays eligible: a cycle the task under analysis waits behind a
    contender earns it at most ``share / scale < 1`` cycles of budget it
    would otherwise have waited for, so the wait never pays for itself
    (6,100 drawn eligible H-CBA scenarios checked, no violation).
    """
    return (
        config.arbitration in DETERMINISTIC_ARBITERS
        and not config.random_caches
        and config.l2_partitioned
        and config.memory.model == "fixed"
        and config.store_buffer_entries == 0
    )


def draw_scenario(rng: np.random.Generator) -> FuzzScenario:
    """Draw one valid scenario from the configuration space."""
    config = _draw_config(rng)
    kind = _choice(rng, SCENARIO_KINDS)
    tua_core = int(rng.integers(0, config.num_cores))
    if kind == "multiprogram":
        workloads = tuple(
            (core, _draw_workload(rng, f"fuzz-core{core}"))
            for core in range(config.num_cores)
        )
    else:
        workloads = ((tua_core, _draw_workload(rng, f"fuzz-core{tua_core}")),)
    best_effort = (
        _draw_workload(rng, "fuzz-best-effort") if kind == "mixed_criticality" else None
    )

    checks = ["modes"]
    # The campaign invariants (serial == pool, duplicate-free resume) spin up
    # a process pool, so they ride on a subset of iterations; multiprogram is
    # not a registered campaign scenario (jobs carry one workload).
    if kind != "multiprogram" and int(rng.integers(0, 3)) == 0:
        checks.append("campaign")
    seed = int(rng.integers(0, 2**31))
    run_index = int(rng.integers(0, 4))
    # Drawn after everything else, so the H-CBA draw never shifts the draws
    # of another dimension.
    if config.use_cba:
        config = config.with_updates(cba=_draw_hcba(rng, config.cba, tua_core))
    if monotonicity_eligible(config):
        checks.append("monotonicity")

    return FuzzScenario(
        kind=kind,
        seed=seed,
        run_index=run_index,
        tua_core=tua_core,
        max_cycles=3_000_000,
        config=config,
        workloads=workloads,
        best_effort=best_effort,
        checks=tuple(checks),
    )


# ----------------------------------------------------------------------
# Canonical (de)serialisation
# ----------------------------------------------------------------------
def canonical_json(value: object) -> str:
    """Stable JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(value, sort_keys=True, indent=2)


def workload_to_dict(spec: WorkloadSpec) -> dict[str, object]:
    record = asdict(spec)
    record["tags"] = list(spec.tags)
    return record


def workload_from_dict(record: Mapping[str, object]) -> WorkloadSpec:
    fields = dict(record)
    fields["tags"] = tuple(fields.get("tags", ()))
    return WorkloadSpec(**fields)  # type: ignore[arg-type]


def config_to_dict(config: PlatformConfig) -> dict[str, object]:
    return asdict(config)


def _tuple_or_none(value) -> tuple | None:
    return None if value is None else tuple(value)


def config_from_dict(record: Mapping[str, object]) -> PlatformConfig:
    fields = dict(record)
    cba = dict(fields["cba"])
    cba["replenish_shares"] = _tuple_or_none(cba.get("replenish_shares"))
    cba["budget_caps"] = _tuple_or_none(cba.get("budget_caps"))
    fields["cba"] = CBAParameters(**cba)
    fields["bus_timings"] = BusTimings(**fields["bus_timings"])
    fields["l1_geometry"] = CacheGeometry(**fields["l1_geometry"])
    fields["l2_geometry"] = CacheGeometry(**fields["l2_geometry"])
    fields["memory"] = MemoryConfig(**fields.get("memory", {}))
    return PlatformConfig(**fields)  # type: ignore[arg-type]


def scenario_to_dict(scenario: FuzzScenario) -> dict[str, object]:
    return {
        "kind": scenario.kind,
        "seed": scenario.seed,
        "run_index": scenario.run_index,
        "tua_core": scenario.tua_core,
        "max_cycles": scenario.max_cycles,
        "config": config_to_dict(scenario.config),
        "workloads": [
            [core, workload_to_dict(spec)] for core, spec in scenario.workloads
        ],
        "best_effort": (
            workload_to_dict(scenario.best_effort)
            if scenario.best_effort is not None
            else None
        ),
        "checks": list(scenario.checks),
    }


def scenario_from_dict(record: Mapping[str, object]) -> FuzzScenario:
    best_effort = record.get("best_effort")
    return FuzzScenario(
        kind=str(record["kind"]),
        seed=int(record["seed"]),
        run_index=int(record["run_index"]),
        tua_core=int(record["tua_core"]),
        max_cycles=int(record["max_cycles"]),
        config=config_from_dict(record["config"]),
        workloads=tuple(
            (int(core), workload_from_dict(spec)) for core, spec in record["workloads"]
        ),
        best_effort=workload_from_dict(best_effort) if best_effort else None,
        checks=tuple(str(c) for c in record["checks"]),
    )
