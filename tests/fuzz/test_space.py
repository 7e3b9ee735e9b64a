"""Tests for the fuzz scenario space: drawing, validity, serialisation."""

import numpy as np
import pytest

from repro.fuzz import (
    KERNEL_MODES,
    SCENARIO_KINDS,
    build_system,
    draw_scenario,
    fuzz_iteration,
    monotonicity_eligible,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.fuzz.space import DETERMINISTIC_ARBITERS, canonical_json


def _draw_many(seed: int, count: int):
    rng = np.random.default_rng(seed)
    return [draw_scenario(rng) for _ in range(count)]


def test_drawn_scenarios_are_buildable_in_every_mode():
    """Every drawn scenario must assemble a system without errors — the
    space generates only valid configurations by construction."""
    for scenario in _draw_many(5, 15):
        for mode in KERNEL_MODES:
            build_system(scenario, mode)


def test_drawing_is_deterministic_for_a_seed():
    assert _draw_many(17, 10) == _draw_many(17, 10)


def test_iteration_seeds_give_distinct_scenarios():
    scenarios = {fuzz_iteration(3, i) for i in range(10)}
    assert len(scenarios) > 1


def test_space_covers_kinds_arbiters_and_memory_models():
    scenarios = _draw_many(29, 120)
    kinds = {s.kind for s in scenarios}
    arbiters = {s.config.arbitration for s in scenarios}
    models = {s.config.memory.model for s in scenarios}
    assert kinds == set(SCENARIO_KINDS)
    assert len(arbiters) >= 5
    assert models == {"fixed", "banked"}
    assert any(s.config.memory.controller_policy == "frfcfs" for s in scenarios)
    assert any(s.config.use_cba for s in scenarios)


def test_json_round_trip_is_identity():
    for scenario in _draw_many(41, 20):
        record = scenario_to_dict(scenario)
        assert scenario_from_dict(record) == scenario
        # Canonical form is stable under a second round trip.
        assert canonical_json(record) == canonical_json(
            scenario_to_dict(scenario_from_dict(record))
        )


def test_monotonicity_gated_to_sound_configurations():
    for scenario in _draw_many(53, 60):
        if "monotonicity" not in scenario.checks:
            continue
        config = scenario.config
        assert config.arbitration in DETERMINISTIC_ARBITERS
        assert not config.random_caches
        assert config.l2_partitioned
        assert config.memory.model == "fixed"
        assert config.store_buffer_entries == 0
        assert monotonicity_eligible(config)


def test_banked_configs_respect_the_maxl_contract():
    """2 × conflict + overhead must never exceed the bus MaxL bound."""
    for scenario in _draw_many(61, 60):
        memory = scenario.config.memory
        if memory.model != "banked":
            continue
        worst = 2 * memory.row_conflict_latency + scenario.config.bus_timings.bus_overhead
        assert worst <= scenario.config.bus_timings.max_latency


def test_invalid_scenarios_rejected():
    scenario = fuzz_iteration(1, 0)
    with pytest.raises(Exception):
        scenario.with_updates(tua_core=scenario.config.num_cores)
    with pytest.raises(Exception):
        scenario.with_updates(kind="bogus")
    with pytest.raises(Exception):
        scenario.with_updates(workloads=())


def _is_hcba(scenario) -> bool:
    cba = scenario.config.cba
    return scenario.config.use_cba and (
        cba.replenish_shares is not None or cba.budget_caps is not None
    )


def test_fixed_seed_reaches_hcba_within_25_iterations():
    assert any(_is_hcba(fuzz_iteration(7, i)) for i in range(25))


def test_hcba_draws_are_valid_and_buildable():
    """Drawn H-CBA favours the task under analysis, keeps every share
    positive and every cap at or above the scaled full budget."""
    scenarios = [s for s in _draw_many(67, 80) if _is_hcba(s)]
    assert any(s.config.cba.replenish_shares for s in scenarios)
    assert any(s.config.cba.budget_caps for s in scenarios)
    for scenario in scenarios:
        cba = scenario.config.cba
        if cba.replenish_shares is not None:
            assert len(cba.replenish_shares) == scenario.config.num_cores
            assert min(cba.replenish_shares) > 0
        if cba.budget_caps is not None:
            assert min(cba.budget_caps) >= cba.scaled_full_budget
            assert cba.budget_caps[scenario.tua_core] == max(cba.budget_caps)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario
    for scenario in scenarios[:6]:
        for mode in KERNEL_MODES:
            build_system(scenario, mode)


def test_closed_form_drawn_only_where_the_replay_guard_holds():
    from repro.platform.replay import replayable

    drawn = [s for s in _draw_many(2025, 300) if "closed_form" in s.checks]
    assert drawn
    for scenario in drawn:
        assert scenario.kind == "isolation"
        assert scenario.config.use_cba and replayable(scenario.config)


def test_contention_replay_drawn_only_where_the_bus_replay_guard_holds():
    from repro.platform.replay import bus_replayable

    scenarios = _draw_many(2025, 600)
    drawn = [s for s in scenarios if "contention_replay" in s.checks]
    assert drawn
    contended = ("max_contention", "wcet_estimation")
    for scenario in drawn:
        assert scenario.kind in contended and bus_replayable(scenario.config)
        # Appended after every older check, so none of them moves.
        assert scenario.checks[-1] in ("contention_replay", "wcet_dominates")
        assert scenario.checks[-1] == "contention_replay" or scenario.checks[-2:] == (
            "contention_replay",
            "wcet_dominates",
        )
    assert all(
        "contention_replay" in s.checks
        for s in scenarios
        if s.kind in contended and bus_replayable(s.config)
    )
    assert {s.kind for s in drawn} == set(contended)


def test_wcet_dominates_drawn_only_where_eligible():
    from repro.fuzz.space import wcet_dominance_eligible

    scenarios = _draw_many(2025, 1500)
    drawn = [s for s in scenarios if "wcet_dominates" in s.checks]
    assert drawn
    for scenario in drawn:
        assert scenario.kind in ("max_contention", "wcet_estimation")
        assert wcet_dominance_eligible(scenario.config)
        assert scenario.config.use_cba and scenario.config.arbitration == "round_robin"
