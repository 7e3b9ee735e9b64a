"""The Section II illustrative example.

A task under analysis (TuA) issues 1,000 short requests (6 bus cycles each)
over a 10,000-cycle execution in isolation, while the three other cores run
streaming applications whose requests hold the bus for 28 cycles.  Under any
request-fair policy each TuA request waits roughly ``3 x 28 = 84`` cycles and
the task slows down by ~9.4x; under a cycle-fair policy the wait drops to
``3 x 6 = 18`` cycles and the slowdown to ~2.8x — below the core count, as
one expects from a fair bandwidth partition.

The experiment reproduces both numbers two ways:

* analytically, with the closed forms of :mod:`repro.core.bounds`;
* by cycle-accurate simulation of the scenario on the shared bus, comparing
  round-robin (request-fair) against CBA (cycle-fair).

Because the example fixes the request durations explicitly (6 and 28 cycles),
the simulation drives the bus with a purpose-built TuA master, greedy
contenders and a per-master fixed-latency slave (it ignores address and
access type) instead of the full cache hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arbiters.base import Arbiter
from ..arbiters.registry import create_arbiter
from ..bus.bus import SharedBus
from ..bus.transaction import AccessType, BusRequest
from ..campaign.campaign import Campaign, aggregate_by_label
from ..campaign.jobs import CampaignJob, RunOutcome
from ..core.bounds import (
    ContentionScenario,
    cycle_fair_execution_time,
    request_fair_execution_time,
    slowdown,
)
from ..core.cba import CreditBasedArbiter
from ..sim.component import Component
from ..sim.config import CBAParameters
from ..sim.kernel import Kernel
from ..workloads.contender import GreedyContender

__all__ = ["IllustrativeResult", "campaign_runner", "run_illustrative_example"]


class _FixedDurationSlave:
    """Bus slave serving each master with a fixed, per-master duration."""

    def __init__(self, durations: dict[int, int]) -> None:
        self.durations = dict(durations)

    def resolve(self, request: BusRequest, cycle: int) -> int:
        return self.durations[request.master_id]


class _PeriodicRequester(Component):
    """The TuA of the example: a fixed number of requests, a fixed compute gap.

    Event-queue protocol: its only self-scheduled event is the submit at the
    end of a compute gap, so it cancels its wake when a request goes out and
    pushes ``cycle + 1 + compute_gap`` when the completion arrives.
    """

    def __init__(
        self,
        name: str,
        core_id: int,
        bus: SharedBus,
        num_requests: int,
        compute_gap: int,
    ) -> None:
        super().__init__(name)
        self.core_id = core_id
        self.bus = bus
        self.num_requests = num_requests
        self.compute_gap = compute_gap
        self.requests_completed = 0
        self.finish_cycle: int | None = None
        self._compute_remaining = compute_gap
        self._waiting = False
        bus.connect_master(core_id, self)

    @property
    def finished(self) -> bool:
        return self.finish_cycle is not None

    def tick(self) -> None:
        if self.finished or self._waiting:
            return
        if self._compute_remaining > 0:
            self._compute_remaining -= 1
            return
        request = BusRequest(
            master_id=self.core_id,
            address=0x1000_0000 + self.requests_completed * 64,
            access=AccessType.READ,
            issue_cycle=self.now,
        )
        self.bus.submit(request)
        self._waiting = True
        self.cancel_wake()

    def next_event(self, now: int) -> int | None:
        """The submit at the end of the compute gap; ``None`` while waiting
        for the bus or finished."""
        if self.finished or self._waiting:
            return None
        return now + self._compute_remaining

    def fast_forward(self, start: int, cycles: int) -> None:
        if not (self.finished or self._waiting):
            self._compute_remaining -= cycles

    def on_grant(self, request: BusRequest, cycle: int) -> None:
        """Bus master protocol: nothing to do at grant time."""

    def on_complete(self, request: BusRequest, cycle: int) -> None:
        self._waiting = False
        self.requests_completed += 1
        if self.requests_completed >= self.num_requests:
            self.finish_cycle = cycle
        else:
            self._compute_remaining = self.compute_gap
        if self._wake_push:
            self._push_wake(cycle + 1)

    def reset(self) -> None:
        self.requests_completed = 0
        self.finish_cycle = None
        self._compute_remaining = self.compute_gap
        self._waiting = False


@dataclass(frozen=True)
class IllustrativeResult:
    """Analytical and simulated outcomes of the Section II example."""

    scenario: ContentionScenario
    analytic_isolation_cycles: int
    analytic_request_fair_cycles: int
    analytic_cycle_fair_cycles: int
    simulated_isolation_cycles: int
    simulated_request_fair_cycles: int
    simulated_cycle_fair_cycles: int

    @property
    def analytic_request_fair_slowdown(self) -> float:
        return slowdown(self.analytic_request_fair_cycles, self.analytic_isolation_cycles)

    @property
    def analytic_cycle_fair_slowdown(self) -> float:
        return slowdown(self.analytic_cycle_fair_cycles, self.analytic_isolation_cycles)

    @property
    def simulated_request_fair_slowdown(self) -> float:
        return slowdown(self.simulated_request_fair_cycles, self.simulated_isolation_cycles)

    @property
    def simulated_cycle_fair_slowdown(self) -> float:
        return slowdown(self.simulated_cycle_fair_cycles, self.simulated_isolation_cycles)

    def as_dict(self) -> dict[str, object]:
        return {
            "analytic": {
                "isolation_cycles": self.analytic_isolation_cycles,
                "request_fair_cycles": self.analytic_request_fair_cycles,
                "cycle_fair_cycles": self.analytic_cycle_fair_cycles,
                "request_fair_slowdown": self.analytic_request_fair_slowdown,
                "cycle_fair_slowdown": self.analytic_cycle_fair_slowdown,
            },
            "simulated": {
                "isolation_cycles": self.simulated_isolation_cycles,
                "request_fair_cycles": self.simulated_request_fair_cycles,
                "cycle_fair_cycles": self.simulated_cycle_fair_cycles,
                "request_fair_slowdown": self.simulated_request_fair_slowdown,
                "cycle_fair_slowdown": self.simulated_cycle_fair_slowdown,
            },
        }


def _simulate(
    scenario: ContentionScenario,
    use_cba: bool,
    with_contenders: bool,
    base_policy: str = "random_permutations",
    seed: int = 1,
    max_cycles: int = 2_000_000,
) -> int:
    """Simulate the example and return the TuA's execution time in cycles."""
    kernel = Kernel(seed=seed)
    num_cores = scenario.num_cores
    durations = {0: scenario.tua_request_cycles}
    for core in range(1, num_cores):
        durations[core] = scenario.contender_request_cycles
    slave = _FixedDurationSlave(durations)
    base = create_arbiter(base_policy, num_cores, rng=kernel.streams.stream("arbiter"))
    arbiter: Arbiter = base
    if use_cba:
        params = CBAParameters(
            max_latency=scenario.contender_request_cycles,
            num_cores=num_cores,
        )
        arbiter = CreditBasedArbiter(base, params)
    bus = SharedBus(
        "bus",
        num_masters=num_cores,
        arbiter=arbiter,
        slave=slave,
        max_latency=scenario.contender_request_cycles,
    )
    # The TuA spends (isolation - bus time) cycles computing, spread evenly
    # between its requests.
    compute_gap = scenario.compute_cycles // scenario.tua_requests
    tua = _PeriodicRequester(
        "tua", 0, bus, num_requests=scenario.tua_requests, compute_gap=compute_gap
    )
    contenders = []
    if with_contenders:
        contenders = [
            GreedyContender(f"contender{core}", core, bus)
            for core in range(1, num_cores)
        ]
    kernel.register(tua)
    for contender in contenders:
        kernel.register(contender)
    kernel.register(bus)
    kernel.add_stop_condition(lambda: tua.finished)
    kernel.run(max_cycles=max_cycles)
    if not tua.finished:
        raise RuntimeError("the illustrative-example simulation did not converge")
    return int(tua.finish_cycle or 0)


def campaign_runner(job: CampaignJob, run_index: int) -> RunOutcome:
    """Campaign scenario runner: one simulated variant of the Section II example.

    Job options carry the :class:`ContentionScenario` parameters plus the
    variant switches (``use_cba``, ``with_contenders``, ``base_policy``).
    ``run_index`` offsets the seed so repeated runs are independent.
    """
    options = job.options_dict
    scenario = ContentionScenario(
        isolation_cycles=int(options["isolation_cycles"]),
        tua_requests=int(options["tua_requests"]),
        tua_request_cycles=int(options["tua_request_cycles"]),
        contender_request_cycles=int(options["contender_request_cycles"]),
        num_cores=int(options["num_cores"]),
    )
    cycles = _simulate(
        scenario,
        use_cba=bool(options["use_cba"]),
        with_contenders=bool(options["with_contenders"]),
        base_policy=str(options["base_policy"]),
        seed=job.seed + run_index,
        max_cycles=job.max_cycles,
    )
    return RunOutcome(value=float(cycles))


def _variant_job(
    label: str,
    scenario: ContentionScenario,
    base_policy: str,
    seed: int,
    use_cba: bool,
    with_contenders: bool,
) -> CampaignJob:
    options = {
        "isolation_cycles": scenario.isolation_cycles,
        "tua_requests": scenario.tua_requests,
        "tua_request_cycles": scenario.tua_request_cycles,
        "contender_request_cycles": scenario.contender_request_cycles,
        "num_cores": scenario.num_cores,
        "use_cba": use_cba,
        "with_contenders": with_contenders,
        "base_policy": base_policy,
    }
    return CampaignJob(
        label=label,
        scenario="illustrative",
        seed=seed,
        options=tuple(options.items()),
        max_cycles=2_000_000,
    )


def run_illustrative_example(
    scenario: ContentionScenario | None = None,
    base_policy: str = "random_permutations",
    seed: int = 1,
    campaign: Campaign | None = None,
) -> IllustrativeResult:
    """Reproduce the Section II example analytically and by simulation.

    ``base_policy`` is the slot-fair policy used both as the request-fair
    baseline and as the policy CBA wraps (the paper's FPGA integrates CBA
    with random permutations).  The three simulated variants (isolation,
    request-fair contention, cycle-fair contention) run as campaign jobs.
    """
    scenario = scenario or ContentionScenario()
    campaign = campaign if campaign is not None else Campaign()
    jobs = [
        _variant_job(
            "isolation", scenario, base_policy, seed,
            use_cba=False, with_contenders=False,
        ),
        _variant_job(
            "request-fair", scenario, base_policy, seed,
            use_cba=False, with_contenders=True,
        ),
        _variant_job(
            "cycle-fair", scenario, base_policy, seed,
            use_cba=True, with_contenders=True,
        ),
    ]
    aggregated = aggregate_by_label(jobs, campaign.run(jobs))
    simulated_isolation = int(aggregated["isolation"].samples[0])
    simulated_request_fair = int(aggregated["request-fair"].samples[0])
    simulated_cycle_fair = int(aggregated["cycle-fair"].samples[0])
    return IllustrativeResult(
        scenario=scenario,
        analytic_isolation_cycles=scenario.isolation_cycles,
        analytic_request_fair_cycles=request_fair_execution_time(scenario),
        analytic_cycle_fair_cycles=cycle_fair_execution_time(scenario),
        simulated_isolation_cycles=simulated_isolation,
        simulated_request_fair_cycles=simulated_request_fair,
        simulated_cycle_fair_cycles=simulated_cycle_fair,
    )
