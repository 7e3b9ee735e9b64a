"""Tests for the fuzz invariant harness itself."""

import pytest

from repro.fuzz import (
    KERNEL_MODES,
    PRODUCTION_MODE,
    check_modes,
    check_scenario,
    fuzz_iteration,
    run_mode,
)
from repro.sim.config import KernelMode


def _scenario_of_kind(kind: str, seed: int = 77, budget: int = 200):
    for i in range(budget):
        scenario = fuzz_iteration(seed, i)
        if scenario.kind == kind:
            return scenario
    raise AssertionError(f"no {kind} scenario within {budget} draws")


def test_all_kinds_run_in_production_mode():
    for kind in ("isolation", "max_contention", "wcet_estimation",
                 "multiprogram", "mixed_criticality"):
        scenario = _scenario_of_kind(kind)
        result = run_mode(scenario, PRODUCTION_MODE)
        assert result.total_cycles > 0


def test_snapshot_covers_counters_and_memory():
    scenario = fuzz_iteration(77, 0)
    shot = run_mode(scenario, PRODUCTION_MODE).snapshot(scenario.tua_core)
    assert shot["total_cycles"] > 0
    assert scenario.tua_core in shot["core_counters"]
    # The per-request latencies the equivalence matrices compare.
    assert shot["request_latencies"][scenario.tua_core]
    assert "memory" in shot["extra"]
    # Observability output is mode-dependent and must stay out of the snapshot.
    assert "observability" not in shot


def test_check_modes_passes_on_a_healthy_scenario():
    assert check_modes(fuzz_iteration(77, 0)) is None


def test_perturbing_one_mode_is_detected():
    scenario = fuzz_iteration(77, 0)

    # A perturbation of the L2 latency table in exactly one mode must
    # surface as a "modes" violation.
    def perturb_latency(system, mode_name):
        if mode_name == "fast_forward":
            slave = system.l2_slave
            slave._duration_by_class = {
                kind: max(1, duration - 1)
                for kind, duration in slave._duration_by_class.items()
            }

    violation = check_modes(scenario, perturb_latency)
    assert violation is not None
    assert violation.invariant == "modes"
    assert "fast_forward" in violation.detail


def test_unknown_invariant_name_rejected():
    scenario = fuzz_iteration(77, 0).with_updates(checks=("nonsense",))
    with pytest.raises(ValueError):
        check_scenario(scenario)


def test_modes_table_matches_the_equivalence_matrix():
    names = [mode.value for mode in KERNEL_MODES]
    assert names == ["stepping", "fast_forward", "production"]
    assert KERNEL_MODES == tuple(KernelMode)
    assert PRODUCTION_MODE is KernelMode.PRODUCTION


def test_closed_form_holds_on_its_corpus_case_and_catches_a_divergent_cba_run():
    from pathlib import Path

    from repro.fuzz import check_closed_form, load_repro

    scenario, _record = load_repro(
        Path(__file__).parent / "corpus" / "closed-form-hcba-caps.json"
    )
    assert check_closed_form(scenario) is None

    def shorten_l2_under_cba(system, mode_name):
        if system.cba is not None:
            slave = system.l2_slave
            slave._duration_by_class = {
                kind: max(1, duration - 1)
                for kind, duration in slave._duration_by_class.items()
            }

    violation = check_closed_form(scenario, shorten_l2_under_cba)
    assert violation is not None and violation.invariant == "closed_form"
    assert "request_latencies" in violation.detail


def test_contention_replay_holds_on_its_corpus_case_and_catches_a_short_contender():
    from pathlib import Path

    from repro.bus.latency import TransactionClass
    from repro.fuzz import check_contention_replay, load_repro

    scenario, _record = load_repro(
        Path(__file__).parent / "corpus" / "contention-replay-hcba-shares-fifo.json"
    )
    assert scenario.config.arbitration == "fifo"
    assert scenario.config.use_cba and scenario.config.cba.replenish_shares
    assert check_contention_replay(scenario) is None

    def shorten_atomics(system, mode_name):
        durations = system.l2_slave._duration_by_class
        durations[TransactionClass.ATOMIC] -= 1

    violation = check_contention_replay(scenario, shorten_atomics)
    assert violation is not None and violation.invariant == "contention_replay"
    assert "tua_cycles" in violation.detail


def test_wcet_replay_and_dominance_hold_on_their_corpus_case_and_catch_faults():
    from pathlib import Path

    from repro.bus.latency import TransactionClass
    from repro.fuzz import check_contention_replay, check_wcet_dominates, load_repro

    corpus = Path(__file__).parent
    scenario, _record = load_repro(corpus / "corpus" / "wcet-replay-rr-cba.json")
    assert scenario.kind == "wcet_estimation" and scenario.tua_core > 0
    assert check_contention_replay(scenario) is None
    assert check_wcet_dominates(scenario) is None

    def shorten_atomics(system, mode_name):
        durations = system.l2_slave._duration_by_class
        durations[TransactionClass.ATOMIC] -= 1

    violation = check_contention_replay(scenario, shorten_atomics)
    assert violation is not None and violation.invariant == "contention_replay"
    finding, record = load_repro(corpus / "findings" / "wcet-dominates-rr-hcba-cap.json")
    violation = check_wcet_dominates(finding)
    assert violation is not None and violation.detail == record["detail"]
