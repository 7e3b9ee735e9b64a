"""Tests for the Section II illustrative-example experiment."""

from functools import partial

import pytest

from repro.core.bounds import ContentionScenario
from repro.experiments import illustrative
from repro.experiments.illustrative import run_illustrative_example
from repro.sim.config import KernelMode
from repro.sim.kernel import Kernel


@pytest.fixture(scope="module")
def small_result():
    """A scaled-down version of the paper scenario (200 requests instead of
    1,000) so the test runs quickly; ratios are scale invariant."""
    scenario = ContentionScenario(isolation_cycles=2_000, tua_requests=200)
    return run_illustrative_example(scenario, seed=3)


@pytest.fixture(scope="module")
def paper_result():
    """The paper-sized scenario at seed 1 (random permutations underneath)."""
    return run_illustrative_example(
        ContentionScenario(isolation_cycles=10_000, tua_requests=1_000),
        seed=1,
    )


def test_analytic_numbers_match_the_paper_exactly(paper_result):
    result = paper_result
    assert result.analytic_request_fair_cycles == 94_000
    assert result.analytic_cycle_fair_cycles == 28_000
    assert result.analytic_request_fair_slowdown == pytest.approx(9.4)
    assert result.analytic_cycle_fair_slowdown == pytest.approx(2.8)


def test_simulated_cycles_are_pinned(paper_result):
    """The simulated Section II cycle counts at seed 1 with RP: how the
    kernel dispatches the example's masters must not move a single cycle."""
    assert paper_result.simulated_isolation_cycles == 10_999
    assert paper_result.simulated_request_fair_cycles == 90_280
    assert paper_result.simulated_cycle_fair_cycles == 37_697


def test_example_kernels_take_due_only_dispatch(monkeypatch):
    """Under the default mode all three variants run ``_run_due``; only
    ``KernelMode.STEPPING`` steps."""
    loops: list[str] = []
    run_due, run_stepping = Kernel._run_due, Kernel._run_stepping

    def spy_due(self, limit):
        loops.append("due")
        return run_due(self, limit)

    def spy_stepping(self, limit):
        loops.append("stepping")
        return run_stepping(self, limit)

    monkeypatch.setattr(Kernel, "_run_due", spy_due)
    monkeypatch.setattr(Kernel, "_run_stepping", spy_stepping)
    run_illustrative_example(
        ContentionScenario(isolation_cycles=2_000, tua_requests=200), seed=3
    )
    assert loops == ["due"] * 3


@pytest.mark.parametrize("use_cba", [False, True])
def test_example_is_bit_identical_in_every_kernel_mode(monkeypatch, use_cba):
    scenario = ContentionScenario(isolation_cycles=2_000, tua_requests=200)
    cycles = []
    for mode in KernelMode:
        monkeypatch.setattr(illustrative, "Kernel", partial(Kernel, mode=mode))
        cycles.append(
            (
                illustrative._simulate(scenario, use_cba, with_contenders=False, seed=5),
                illustrative._simulate(scenario, use_cba, with_contenders=True, seed=5),
            )
        )
    assert cycles[0] == cycles[1] == cycles[2]


def test_simulated_request_fair_slowdown_is_severe(small_result):
    """Request-fair arbitration: every short request waits behind three long
    ones, so the slowdown approaches the paper's ~9x."""
    assert small_result.simulated_request_fair_slowdown > 6.0


def test_simulated_cycle_fair_slowdown_is_much_lower(small_result):
    assert (
        small_result.simulated_cycle_fair_slowdown
        < 0.6 * small_result.simulated_request_fair_slowdown
    )


def test_simulated_cycle_fair_slowdown_roughly_bounded_by_core_count(small_result):
    """The paper's conclusion: with CBA the slowdown roughly matches the core
    count (4 here); allow some head-room for grant-boundary effects."""
    assert small_result.simulated_cycle_fair_slowdown < 4.5


def test_isolation_simulation_close_to_analytic(small_result):
    analytic = small_result.analytic_isolation_cycles
    simulated = small_result.simulated_isolation_cycles
    assert simulated == pytest.approx(analytic, rel=0.15)


def test_as_dict_round_trip(small_result):
    data = small_result.as_dict()
    assert "analytic" in data and "simulated" in data
    assert data["analytic"]["request_fair_slowdown"] == pytest.approx(9.4)
