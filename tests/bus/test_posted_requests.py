"""Posted requests: a greedy contender's re-issue, admitted by the bus.

Outside ``KernelMode.STEPPING`` a greedy contender hands the bus its next
request from the completion callback (:meth:`SharedBus.post`) instead of
waking for it.  The bus admits that request exactly as the contender's
submit on the next cycle would have been seen under stepping: in the same
``on_request`` order relative to the other masters' submits of that cycle
(FIFO grants by it), with the same counters, and within the run's end.
"""

from __future__ import annotations

import pytest

from repro.arbiters.fifo import FIFOArbiter
from repro.bus.bus import SharedBus
from repro.bus.ports import FixedLatencySlave
from repro.bus.transaction import BusRequest
from repro.platform.system import MulticoreSystem
from repro.sim.component import Component
from repro.sim.config import KernelMode, PlatformConfig
from repro.sim.errors import ProtocolError
from repro.sim.kernel import Kernel
from repro.workloads.base import AddressPattern, WorkloadSpec
from repro.workloads.contender import GreedyContender

ARBITERS = [
    "fifo",
    "round_robin",
    "tdma",
    "lottery",
    "random_permutations",
    "fixed_priority",
]


class ScheduledMaster(Component):
    """A master that submits one request at each listed cycle."""

    def __init__(self, name: str, master_id: int, bus: SharedBus, cycles: list[int]) -> None:
        super().__init__(name)
        self.master_id = master_id
        self.bus = bus
        self.cycles = cycles
        self._next = 0
        bus.connect_master(master_id, self)

    def tick(self) -> None:
        if self._next < len(self.cycles) and self.cycles[self._next] == self.now:
            self._next += 1
            self.bus.submit(
                BusRequest(master_id=self.master_id, address=0, issue_cycle=self.now)
            )
        if self._wake_push:
            self._push_wake(self.now + 1)

    def next_event(self, now: int) -> int | None:
        return self.cycles[self._next] if self._next < len(self.cycles) else None

    def on_complete(self, request: BusRequest, cycle: int) -> None:
        """Nothing to do: the next submit is on the schedule."""


def run_fifo_pair(mode: KernelMode, submitter_first: bool):
    """A FIFO bus with a greedy contender whose re-issues (cycles 6 and 17,
    after 5-cycle holds) coincide with another master's submits."""
    kernel = Kernel(mode=mode)
    bus = SharedBus(
        "bus", num_masters=2, arbiter=FIFOArbiter(2), slave=FixedLatencySlave(5)
    )
    submitter_id, contender_id = (0, 1) if submitter_first else (1, 0)
    submitter = ScheduledMaster("core", submitter_id, bus, [6, 17])
    contender = GreedyContender("contender", contender_id, bus)
    order = [submitter, contender] if submitter_first else [contender, submitter]
    kernel.register_all([*order, bus])
    kernel.run(max_cycles=40)
    return list(bus.holder_log), bus.stats.counter("requests_submitted").value, kernel


@pytest.mark.parametrize("submitter_first", [True, False], ids=["core-first", "contender-first"])
def test_same_cycle_submit_and_posted_reissue_keep_the_stepped_order(submitter_first):
    """Both masters assert a request at cycle 6; FIFO breaks the tie by the
    order the bus reported them, which is the masters' tick order."""
    stepped = run_fifo_pair(KernelMode.STEPPING, submitter_first)
    log = stepped[0]
    assert log[log.index(6) + 1] == 0  # master 0 ticks first either way
    for mode in (KernelMode.FAST_FORWARD, KernelMode.PRODUCTION):
        log, submitted, kernel = run_fifo_pair(mode, submitter_first)
        assert (log, submitted) == stepped[:2], mode
        assert kernel.cycles_skipped > 0


def test_greedy_contender_has_no_wake_once_its_first_request_is_out():
    kernel = Kernel(mode=KernelMode.PRODUCTION)
    bus = SharedBus(
        "bus", num_masters=2, arbiter=FIFOArbiter(2), slave=FixedLatencySlave(5)
    )
    contender = GreedyContender("contender", 1, bus)
    ticks: list[int] = []
    real_tick = contender.tick

    def counted_tick() -> None:
        ticks.append(kernel.clock.cycle)
        real_tick()

    contender.tick = counted_tick
    kernel.register_all([contender, bus])
    kernel.run(max_cycles=100)
    assert ticks == [0]
    assert kernel.scheduled_wake(contender) is None
    # Completions at 5, 11, ..., 95 each post a re-issue the bus admits.
    assert contender.requests_completed == 16
    assert bus.stats.counter("requests_submitted").value == 17


def test_posting_a_second_outstanding_request_is_a_protocol_error():
    kernel = Kernel(mode=KernelMode.PRODUCTION)
    bus = SharedBus(
        "bus", num_masters=2, arbiter=FIFOArbiter(2), slave=FixedLatencySlave(5)
    )
    kernel.register(bus)
    bus.submit(BusRequest(master_id=1, address=0))
    with pytest.raises(ProtocolError):
        bus.post(BusRequest(master_id=1, address=0, issue_cycle=1))


#: Geometric compute gaps around one contender hold, so the task's submits
#: land on the cycle after a contender's completion in every row below.
TASK = WorkloadSpec(
    name="spread",
    num_accesses=400,
    working_set_bytes=1 << 20,
    mean_compute_gap=56.0,
    gap_variability=1.0,
    pattern=AddressPattern.RANDOM,
    write_fraction=0.3,
)


def run_contended(mode: KernelMode, arbitration: str, use_cba: bool, store_buffer: int):
    """A task core against three greedy contenders; returns the snapshot,
    the bus's submitted-request count and the cycles on which the task's
    submit met a posted re-issue of the same cycle."""
    config = PlatformConfig(
        arbitration=arbitration, use_cba=use_cba, store_buffer_entries=store_buffer
    )
    coincidences: list[int] = []
    with MulticoreSystem(config, seed=5, mode=mode) as system:
        system.add_task(0, TASK)
        for core in range(1, 4):
            system.add_greedy_contender(core)
        bus = system.bus
        submit = bus.submit

        def spying_submit(request: BusRequest) -> None:
            posted = bus._posted
            if posted and posted[0].issue_cycle == bus.now:
                coincidences.append(bus.now)
            submit(request)

        bus.submit = spying_submit
        result = system.run(max_cycles=2_000_000)
        submitted = bus.stats.counter("requests_submitted").value
    return result.snapshot(0), submitted, coincidences


@pytest.mark.parametrize("store_buffer", [0, 4], ids=["blocking", "store-buffer"])
@pytest.mark.parametrize("use_cba", [False, True], ids=["plain", "cba"])
@pytest.mark.parametrize("arbitration", ARBITERS)
def test_core_submits_meeting_posted_reissues_agree_in_every_mode(
    arbitration, use_cba, store_buffer
):
    stepped = run_contended(KernelMode.STEPPING, arbitration, use_cba, store_buffer)
    assert stepped[2] == []  # stepping never posts
    for mode in (KernelMode.FAST_FORWARD, KernelMode.PRODUCTION):
        snapshot, submitted, coincidences = run_contended(
            mode, arbitration, use_cba, store_buffer
        )
        assert snapshot == stepped[0], mode
        assert submitted == stepped[1], mode
        assert coincidences, "no submit met a posted re-issue of its cycle"
