"""The CBA isolation and maximum-contention replays against simulated runs.

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

:func:`repro.platform.replay.bus_replay` replays the same grant log against
greedy contenders through the production arbiter.  It must give every
field the campaign keeps of the simulated contention run, for RP, RR and
FIFO bases with and without CBA, H-CBA shares and caps included.  Its guard
adds fixed DRAM: banked rows make a contender's hold depend on the state
it finds.  With ``wcet_mode`` it replays Table I's WCET-estimation-mode
contenders instead, and must give every field of the simulated
WCET-estimation run; two replays of one source also give MBPTA's premise,
that WCET-estimation mode takes at least as long as maximum contention.
"""

from __future__ import annotations

from array import array
from dataclasses import replace

import pytest

from repro.experiments.runner import scale_workload
from repro.platform.presets import cba_config, config_by_label, hcba_config, rp_config
from repro.platform.replay import bus_replay, bus_replayable, cba_waits, grant_log, replayable
from repro.platform.scenarios import run_isolation, run_max_contention, run_wcet_estimation
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


# ----------------------------------------------------------------------
# Maximum contention
# ----------------------------------------------------------------------
def _outcome(tua_cycles, system, tua):
    """The fields the campaign keeps of a run (``_platform_outcome``)."""
    return {
        "tua_cycles": tua_cycles,
        "total_cycles": system.total_cycles,
        "tua_bandwidth_share": system.bandwidth_shares[tua],
        "contender_requests": sum(system.extra["contender_requests"].values()),
        "batched_items": system.observability["batched_items"],
        "batch_stretches": system.observability["batch_stretches"],
    }


def _replayed_outcome(workload, config, seed, tua=0, max_cycles=5_000_000, wcet_mode=False):
    """The contention (or WCET-estimation) run's fields as replayed from its
    RP-ISO sibling."""
    sibling = config.with_updates(use_cba=False)
    source = run_isolation(workload, sibling, seed=seed, run_index=1, tua_core=tua)
    log = grant_log(source.holder_log, tua, source.system.core_counters[tua].request_latencies)
    assert log is not None
    replayed = bus_replay(
        log, config, source.system.total_cycles,
        seed=seed, run_index=1, tua_core=tua, max_cycles=max_cycles, wcet_mode=wcet_mode,
    )
    if replayed is None:
        return None
    return {
        **_outcome(source.tua_cycles + replayed.shift, source.system, tua),
        "total_cycles": replayed.total_cycles,
        "tua_bandwidth_share": replayed.tua_bandwidth_share,
        "contender_requests": replayed.contender_requests,
    }


def _simulated_outcome(workload, config, seed, tua=0, scenario=run_max_contention):
    simulated = scenario(workload, config, seed=seed, run_index=1, tua_core=tua)
    return _outcome(simulated.tua_cycles, simulated.system, tua)


def _cba_variants(config, tua, shares_alone=False):
    """No CBA, CBA, and H-CBA with shares and a 2x cap for the TuA (and
    with shares alone)."""
    cores = config.num_cores
    hcba = hcba_config(cores, favoured_core=tua, arbitration=config.arbitration)
    full = hcba.cba.scaled_full_budget
    caps = tuple(2 * full if core == tua else full for core in range(cores))
    variants = {
        "no-cba": config,
        "cba": cba_config(cores, arbitration=config.arbitration),
        "hcba-shares-caps": hcba.with_updates(cba=replace(hcba.cba, budget_caps=caps)),
    }
    if shares_alone:
        variants["hcba-shares"] = hcba
    return variants


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("arbitration", ["random_permutations", "round_robin", "fifo"])
def test_bus_replay_gives_every_field_of_max_contention(arbitration, seed):
    rp = rp_config(arbitration=arbitration)
    assert bus_replayable(rp)
    for name in FIGURE1_BENCHMARKS:
        workload = scale_workload(eembc_workload(name), 0.1)
        for label, config in _cba_variants(rp, 0).items():
            assert _replayed_outcome(workload, config, seed) == _simulated_outcome(
                workload, config, seed
            ), (name, label)


@pytest.mark.parametrize("arbitration", ["random_permutations", "fifo"])
def test_bus_replay_of_a_task_above_its_contender(arbitration):
    # With the task on core 1 of 2, contender 0 ticks after the task's core:
    # within a cycle the task's request still reaches the arbiter first.
    workload = scale_workload(eembc_workload("matrix"), 0.1)
    rp = rp_config(2, arbitration=arbitration)
    for label, config in _cba_variants(rp, 1).items():
        assert _replayed_outcome(workload, config, 4, tua=1) == _simulated_outcome(
            workload, config, 4, tua=1
        ), label


def test_bus_replay_refuses_an_end_past_the_cycle_budget():
    workload = scale_workload(eembc_workload("canrdr"), 0.05)
    config = cba_config()
    end = _simulated_outcome(workload, config, 1)["total_cycles"]
    assert _replayed_outcome(workload, config, 1, max_cycles=end + 1) is not None
    assert _replayed_outcome(workload, config, 1, max_cycles=end) is None
    # A budget the run crosses mid-stream, while a contender holds the bus.
    assert _replayed_outcome(workload, config, 1, max_cycles=end // 2) is None


def test_banked_dram_store_buffer_and_tdma_are_outside_the_contention_guard():
    banked = rp_config().with_updates(
        memory=MemoryConfig(model="banked", controller_policy="frfcfs")
    )
    assert replayable(banked) and not bus_replayable(banked)
    assert not bus_replayable(rp_config().with_updates(store_buffer_entries=4))
    assert not bus_replayable(rp_config().with_updates(arbitration="tdma"))
    # Banked DRAM is outside for cause: the contenders' atomics open rows and
    # take row-dependent times, which the replay's fixed hold does not see.
    workload = scale_workload(eembc_workload("matrix"), 0.1)
    assert _replayed_outcome(workload, banked, 1) != _simulated_outcome(workload, banked, 1)


# ----------------------------------------------------------------------
# WCET estimation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("arbitration", ["random_permutations", "round_robin", "fifo"])
@pytest.mark.parametrize("cores, tua", [(4, 0), (4, 2), (2, 1)], ids=["core0", "core2", "core1of2"])
def test_wcet_replay_gives_every_field_of_wcet_estimation(arbitration, seed, cores, tua):
    rp = rp_config(cores, arbitration=arbitration)
    for name in FIGURE1_BENCHMARKS:
        workload = scale_workload(eembc_workload(name), 0.1)
        for label, config in _cba_variants(rp, tua, shares_alone=True).items():
            assert _replayed_outcome(
                workload, config, seed, tua=tua, wcet_mode=True
            ) == _simulated_outcome(
                workload, config, seed, tua=tua, scenario=run_wcet_estimation
            ), (name, label)


@pytest.mark.parametrize("arbitration", ["random_permutations", "fifo"])
def test_wcet_replay_of_contenders_whose_budget_stays_full_while_they_hold(arbitration):
    # Contender caps at 3x the full budget keep a contender eligible into
    # its own hold, so COMP can set while it holds the bus and it issues
    # again the cycle after its completion, whatever its budget then.
    workload = scale_workload(eembc_workload("tblook"), 0.1)
    config = cba_config(arbitration=arbitration)
    full = config.cba.scaled_full_budget
    caps = (full, 3 * full, 3 * full, 3 * full)
    config = config.with_updates(cba=replace(config.cba, budget_caps=caps))
    for seed in (1, 2, 3):
        assert _replayed_outcome(workload, config, seed, wcet_mode=True) == _simulated_outcome(
            workload, config, seed, scenario=run_wcet_estimation
        ), seed


def test_wcet_replay_refuses_an_end_past_the_cycle_budget():
    workload = scale_workload(eembc_workload("canrdr"), 0.05)
    config = cba_config()
    end = _simulated_outcome(workload, config, 1, scenario=run_wcet_estimation)["total_cycles"]
    assert _replayed_outcome(workload, config, 1, max_cycles=end + 1, wcet_mode=True) is not None
    assert _replayed_outcome(workload, config, 1, max_cycles=end, wcet_mode=True) is None
    assert _replayed_outcome(workload, config, 1, max_cycles=end // 2, wcet_mode=True) is None


def test_banked_dram_is_outside_the_wcet_guard_for_cause():
    banked = cba_config().with_updates(
        memory=MemoryConfig(model="banked", controller_policy="frfcfs")
    )
    assert not bus_replayable(banked)
    assert not bus_replayable(cba_config().with_updates(store_buffer_entries=4))
    assert not bus_replayable(cba_config().with_updates(arbitration="tdma"))
    workload = scale_workload(eembc_workload("matrix"), 0.1)
    assert _replayed_outcome(workload, banked, 1, wcet_mode=True) != _simulated_outcome(
        workload, banked, 1, scenario=run_wcet_estimation
    )


@pytest.mark.parametrize("label", ["CBA", "H-CBA"])
@pytest.mark.parametrize("name", FIGURE1_BENCHMARKS)
def test_wcet_estimation_dominates_max_contention(name, label):
    """MBPTA's premise (Table I), per (seed, run): the task takes at least
    as long against WCET-estimation-mode contenders as against greedy ones.
    Both runs are replays of one RP-ISO source."""
    workload = scale_workload(eembc_workload(name), 0.3)
    config = config_by_label(label)
    for seed in (1, 2, 3):
        source = run_isolation(workload, config.with_updates(use_cba=False), seed=seed)
        log = grant_log(source.holder_log, 0, source.system.core_counters[0].request_latencies)
        replays = [
            bus_replay(
                log, config, source.system.total_cycles,
                seed=seed, run_index=0, tua_core=0, max_cycles=5_000_000, wcet_mode=wcet_mode,
            )
            for wcet_mode in (True, False)
        ]
        wcet, greedy = (source.tua_cycles + replayed.shift for replayed in replays)
        assert wcet >= greedy, seed
