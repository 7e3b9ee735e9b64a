"""Tests for the analytical contention bounds (Section II numbers)."""

import pytest

from repro.core.bounds import (
    ContentionScenario,
    cycle_fair_execution_time,
    cycle_fair_wait,
    request_fair_execution_time,
    request_fair_wait,
    slowdown,
    worst_case_wait_round_robin,
    worst_case_wait_tdma,
)


def test_paper_scenario_defaults():
    scenario = ContentionScenario()
    assert scenario.num_contenders == 3
    assert scenario.compute_cycles == 4000


def test_request_fair_numbers_match_the_paper():
    scenario = ContentionScenario()
    assert request_fair_wait(scenario) == 84
    assert request_fair_execution_time(scenario) == 94_000
    assert slowdown(request_fair_execution_time(scenario), scenario.isolation_cycles) == (
        pytest.approx(9.4)
    )


def test_cycle_fair_numbers_match_the_paper():
    scenario = ContentionScenario()
    assert cycle_fair_wait(scenario) == 18
    assert cycle_fair_execution_time(scenario) == 28_000
    assert slowdown(cycle_fair_execution_time(scenario), scenario.isolation_cycles) == (
        pytest.approx(2.8)
    )


def test_cycle_fair_slowdown_bounded_by_core_count():
    """The paper's headline claim: with cycle-fair sharing, the slowdown of a
    task that saturates the bus is at most the core count."""
    for cores in (2, 4, 8):
        scenario = ContentionScenario(
            isolation_cycles=10_000,
            tua_requests=1_000,
            tua_request_cycles=10,
            contender_request_cycles=56,
            num_cores=cores,
        )
        ratio = slowdown(cycle_fair_execution_time(scenario), scenario.isolation_cycles)
        assert ratio <= cores


def test_request_fair_slowdown_grows_with_contender_length():
    short = ContentionScenario(contender_request_cycles=10)
    long = ContentionScenario(contender_request_cycles=56)
    assert request_fair_execution_time(long) > request_fair_execution_time(short)


def test_slowdown_requires_positive_baseline():
    with pytest.raises(ValueError):
        slowdown(10, 0)


def test_worst_case_wait_round_robin():
    assert worst_case_wait_round_robin(4, 56) == 3 * 56 + 55


def test_worst_case_wait_tdma():
    assert worst_case_wait_tdma(4, 56) == 4 * 56 - 1
