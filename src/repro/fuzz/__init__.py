"""Property-based scenario fuzzing for the reproduction.

The fuzzer draws random-but-valid platform/workload/memory configurations
from a seeded generator (:mod:`repro.fuzz.space`), runs each one through
every kernel execution mode and the campaign engine, and checks cross-mode
bit-identity, serial-vs-pool dispatch equivalence, duplicate-free resume and
contention monotonicity (:mod:`repro.fuzz.harness`).  Failures shrink
deterministically (:mod:`repro.fuzz.shrink`) into self-contained repro JSON
files that ``repro fuzz replay`` re-executes (:mod:`repro.fuzz.runner`).
"""

from .harness import (
    CHECKS,
    KERNEL_MODES,
    PRODUCTION_MODE,
    InvariantViolation,
    KernelMode,
    build_system,
    check_campaign,
    check_modes,
    check_monotonicity,
    check_scenario,
    run_mode,
)
from .runner import (
    REPRO_VERSION,
    FuzzFailure,
    FuzzReport,
    fuzz_iteration,
    fuzz_run,
    iteration_seed,
    load_repro,
    replay_file,
    replay_scenario,
    write_repro,
)
from .shrink import shrink_scenario
from .space import (
    ARBITER_POLICIES,
    DETERMINISTIC_ARBITERS,
    SCENARIO_KINDS,
    FuzzScenario,
    canonical_json,
    draw_scenario,
    monotonicity_eligible,
    scenario_from_dict,
    scenario_to_dict,
)

__all__ = [
    "ARBITER_POLICIES",
    "CHECKS",
    "DETERMINISTIC_ARBITERS",
    "FuzzFailure",
    "FuzzReport",
    "FuzzScenario",
    "InvariantViolation",
    "KERNEL_MODES",
    "KernelMode",
    "PRODUCTION_MODE",
    "REPRO_VERSION",
    "SCENARIO_KINDS",
    "build_system",
    "canonical_json",
    "check_campaign",
    "check_modes",
    "check_monotonicity",
    "check_scenario",
    "draw_scenario",
    "fuzz_iteration",
    "fuzz_run",
    "iteration_seed",
    "load_repro",
    "monotonicity_eligible",
    "replay_file",
    "replay_scenario",
    "run_mode",
    "scenario_from_dict",
    "scenario_to_dict",
    "shrink_scenario",
    "write_repro",
]
