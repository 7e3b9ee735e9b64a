"""The CBA isolation replay against simulated runs.

:func:`repro.platform.replay.cba_waits` replays a lone task's run without
CBA through the production credit bank.  Its waits, added to the source's
per-request latencies, must give every request latency of the simulated
CBA run, and their sum the shift of its execution and total cycles.

Guard, as these tests find it: RP, RR and FIFO bases qualify (a lone
requestor is granted at issue), and so do banked DRAM with FR-FCFS and
budget caps above the full budget (H-CBA option 1).  A store buffer does
not: the buffered stores overlap later work, so requests wait for the bus
in the source already and :func:`grant_log` refuses it.  TDMA does not
either, since a lone requestor waits for its slot.
"""

from __future__ import annotations

from array import array
from dataclasses import replace

import pytest

from repro.experiments.runner import scale_workload
from repro.platform.presets import cba_config, hcba_config, rp_config
from repro.platform.replay import cba_waits, grant_log, replayable
from repro.platform.scenarios import run_isolation
from repro.sim.config import KernelMode, MemoryConfig
from repro.workloads.eembc import FIGURE1_BENCHMARKS, eembc_workload


def _source_and_log(workload, config, mode=KernelMode.PRODUCTION):
    source = run_isolation(workload, config, seed=1, mode=mode)
    latencies = source.system.core_counters[0].request_latencies
    return source, grant_log(source.holder_log, 0, latencies)


def _assert_replay_matches(workload, source, log, config, mode=KernelMode.PRODUCTION):
    """Every simulated request latency is the source's plus its replayed
    wait; returns the shift of the run's end."""
    assert log is not None
    waits = cba_waits(log, config.cba, 0)
    simulated = run_isolation(workload, config, seed=1, mode=mode)
    latencies = source.system.core_counters[0].request_latencies
    assert [
        latency + wait for latency, wait in zip(latencies, waits)
    ] == simulated.system.core_counters[0].request_latencies
    shift = sum(waits)
    assert simulated.tua_cycles == source.tua_cycles + shift
    assert simulated.system.total_cycles == source.system.total_cycles + shift
    return shift


@pytest.mark.parametrize("mode", list(KernelMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", FIGURE1_BENCHMARKS)
def test_replay_gives_every_wait_of_cba_and_hcba_isolation(name, mode):
    workload = scale_workload(eembc_workload(name), 0.2)
    source, log = _source_and_log(workload, rp_config(), mode)
    assert _assert_replay_matches(workload, source, log, cba_config(), mode) > 0
    _assert_replay_matches(workload, source, log, hcba_config(4, favoured_core=0), mode)


def _caps(config, factor):
    full = config.cba.scaled_full_budget
    return config.with_updates(
        cba=replace(config.cba, budget_caps=(factor * full, full, full, full))
    )


@pytest.mark.parametrize(
    "platform",
    [
        {"arbitration": "round_robin"},
        {"arbitration": "fifo"},
        {"memory": MemoryConfig(model="banked", controller_policy="frfcfs")},
    ],
    ids=["round_robin", "fifo", "banked-frfcfs"],
)
def test_replay_covers_other_bases_banked_dram_and_budget_caps(platform):
    workload = scale_workload(eembc_workload("matrix"), 0.2)
    source, log = _source_and_log(workload, rp_config().with_updates(**platform))
    for config in (cba_config(), hcba_config(4, favoured_core=0)):
        config = config.with_updates(**platform)
        assert replayable(config)
        for candidate in (config, _caps(config, 2), _caps(config, 3)):
            _assert_replay_matches(workload, source, log, candidate)


def test_store_buffer_and_tdma_are_outside_the_guard():
    workload = scale_workload(eembc_workload("matrix"), 0.2)
    buffered = rp_config().with_updates(store_buffer_entries=4)
    assert not replayable(buffered)
    assert not replayable(rp_config().with_updates(arbitration="tdma"))
    # The buffered source itself already makes requests wait.
    _source, log = _source_and_log(workload, buffered)
    assert log is None


def test_grant_log_reads_holds_from_the_holder_log():
    # Holds [3, 9), [9, 12) (release and grant in one cycle) and [20, 25).
    holder_log = array("q", [3, 0, 9, 0, 12, -1, 20, 0, 25, -1])
    assert list(grant_log(holder_log, 0, [6, 3, 5])) == [3, 9, 9, 12, 20, 25]
    # A request that waited for its grant: release - latency != grant.
    assert grant_log(holder_log, 0, [6, 4, 5]) is None
    # A hold that never ended (a truncated run).
    assert grant_log(holder_log[:-2], 0, [6, 3, 5]) is None
    assert grant_log(array("q"), 0, []) == array("q")


def test_replay_of_back_to_back_requests_waits_for_each_refill():
    # CBA, 4 cores, MaxL 56: a hold of L cycles from a full budget (the
    # first cycle clips at the cap) leaves it 3L + 1 short (drain 4, share
    # 1), so a request issued at the release waits 3L + 1 cycles, and the
    # shift moves every later request with it.
    log = array("q", [0, 10, 10, 20, 100, 110])
    assert list(cba_waits(log, cba_config().cba, 0)) == [0, 31, 0]
