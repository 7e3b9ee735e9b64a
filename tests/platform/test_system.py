"""Tests for the multicore system builder."""

import pytest

from repro.core.cba import CreditBasedArbiter
from repro.platform.system import MulticoreSystem
from repro.sim.errors import ConfigurationError


def test_system_requires_at_least_one_task(rp_platform):
    system = MulticoreSystem(rp_platform, seed=1)
    with pytest.raises(ConfigurationError):
        system.run(max_cycles=100)


def test_single_task_runs_to_completion(rp_platform, tiny_workload):
    system = MulticoreSystem(rp_platform, seed=1)
    system.add_task(0, tiny_workload)
    result = system.run(max_cycles=200_000)
    assert result.execution_cycles(0) > 0
    counters = result.core_counters[0]
    assert counters.accesses == tiny_workload.num_accesses
    assert counters.finished


def test_core_slots_cannot_be_reused(rp_platform, tiny_workload):
    system = MulticoreSystem(rp_platform, seed=1)
    system.add_task(0, tiny_workload)
    with pytest.raises(ConfigurationError):
        system.add_task(0, tiny_workload)
    with pytest.raises(ConfigurationError):
        system.add_greedy_contender(0)
    with pytest.raises(ConfigurationError):
        system.add_task(9, tiny_workload)


def test_cba_config_wraps_the_base_arbiter(cba_platform, tiny_workload):
    system = MulticoreSystem(cba_platform, seed=1)
    system.add_task(0, tiny_workload)
    assert isinstance(system.cba, CreditBasedArbiter)
    assert system.arbiter is system.cba
    assert system.cba.base is system.base_arbiter


def test_rp_config_has_no_cba(rp_platform, tiny_workload):
    system = MulticoreSystem(rp_platform, seed=1)
    system.add_task(0, tiny_workload)
    assert system.cba is None


def test_set_tua_initial_budget_noop_without_cba(rp_platform, tiny_workload):
    system = MulticoreSystem(rp_platform, seed=1)
    system.add_task(0, tiny_workload)
    system.set_tua_initial_budget(0, 0)  # must not raise


def test_set_tua_initial_budget_applies_with_cba(cba_platform, tiny_workload):
    system = MulticoreSystem(cba_platform, seed=1)
    system.add_task(0, tiny_workload)
    system.set_tua_initial_budget(0, 0)
    assert system.cba.budget(0, 0) == 0


def test_contenders_generate_bus_traffic(rp_platform, tiny_workload):
    system = MulticoreSystem(rp_platform, seed=1)
    system.add_task(0, tiny_workload)
    for core in range(1, 4):
        system.add_greedy_contender(core)
    result = system.run(max_cycles=500_000)
    contender_requests = result.extra["contender_requests"]
    assert all(count > 0 for count in contender_requests.values())
    assert result.bus_utilization > 0.5


def test_wcet_contender_requires_distinct_tua(rp_platform, tiny_workload):
    system = MulticoreSystem(rp_platform, seed=1)
    system.add_task(0, tiny_workload)
    with pytest.raises(ConfigurationError):
        system.add_wcet_contender(1, tua_core=1)


def test_result_contains_bandwidth_accounting(rp_platform, tiny_workload):
    system = MulticoreSystem(rp_platform, seed=1)
    system.add_task(0, tiny_workload)
    result = system.run(max_cycles=200_000)
    assert len(result.bandwidth_shares) == 4
    assert result.bandwidth_shares[0] == pytest.approx(1.0)
    assert result.grants_per_core[0] == result.core_counters[0].bus_requests
    assert 0.0 <= result.bus_utilization <= 1.0


def test_components_cannot_be_added_after_finalize(rp_platform, tiny_workload):
    system = MulticoreSystem(rp_platform, seed=1)
    system.add_task(0, tiny_workload)
    system.finalize()
    with pytest.raises(ConfigurationError):
        system.add_task(1, tiny_workload)


def test_run_limit_raises_when_tasks_do_not_finish(rp_platform, tiny_workload):
    system = MulticoreSystem(rp_platform, seed=1)
    system.add_task(0, tiny_workload)
    with pytest.raises(ConfigurationError):
        system.run(max_cycles=10)
