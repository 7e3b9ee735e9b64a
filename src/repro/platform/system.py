"""Platform assembly: the simulated 4-core LEON3-like system.

:class:`MulticoreSystem` wires together everything the paper's platform
contains: trace-driven cores with private L1 caches, the shared non-split bus
with its arbiter (optionally wrapped by CBA), the partitioned write-back L2,
the memory controller and the DRAM.  Experiments create a system from a
:class:`~repro.sim.config.PlatformConfig`, place workloads and contenders on
cores, run it, read back a :class:`SystemResult`, and close it.  A system runs in one
:class:`~repro.sim.config.KernelMode`; every mode produces the same
:meth:`SystemResult.snapshot`, and only :attr:`SystemResult.observability`
(batched items, skipped cycles) tells them apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..arbiters.base import Arbiter
from ..arbiters.registry import create_arbiter
from ..bus.bus import SharedBus
from ..bus.latency import LatencyTable
from ..bus.monitor import BusMonitor
from ..cache.l1 import build_l1_cache
from ..cache.l2 import L2BusSlave, build_l2
from ..core.cba import CreditBasedArbiter
from ..cpu.core_model import CoreModel
from ..cpu.counters import CoreCounters
from ..memory.controller import MemoryController
from ..memory.dram import DRAM, BankedDRAM
from ..obs.profiler import KernelProfiler
from ..obs.registry import MetricsRegistry
from ..sim.config import KernelMode, ObservabilityConfig, PlatformConfig
from ..sim.errors import ConfigurationError
from ..sim.kernel import Kernel
from ..sim.trace import TraceRecorder
from ..workloads.base import WorkloadSpec
from ..workloads.contender import GreedyContender, WCETModeContender

__all__ = ["MulticoreSystem", "SystemResult"]


def _no_tua_request() -> bool:
    """The request line of a task under analysis that was never placed."""
    return False


@dataclass
class SystemResult:
    """Everything an experiment needs to know about one finished run."""

    config_label: str
    total_cycles: int
    core_counters: dict[int, CoreCounters]
    bus_utilization: float
    bandwidth_shares: list[float]
    grants_per_core: list[int]
    cycles_per_core: list[int]
    cba_blocked_cycles: int = 0
    l1_miss_rates: dict[int, float] = field(default_factory=dict)
    l2_miss_rate: float = 0.0
    #: True when the run stopped at the cycle budget before every task
    #: finished — the per-core execution counters then describe an
    #: incomplete run (0 for tasks that never finished) and must not be
    #: used as execution-time measurements.
    truncated: bool = False
    extra: dict[str, object] = field(default_factory=dict)
    #: Execution-strategy observability (batch interpreter counters, skipped
    #: cycles): kept apart from :attr:`extra` because these legitimately
    #: differ between bit-identical execution modes (stepped vs
    #: fast-forwarded vs batched) and must not enter result comparisons.
    observability: dict[str, int] = field(default_factory=dict)

    def execution_cycles(self, core_id: int) -> int:
        """Execution time (cycles) of the task that ran on ``core_id``."""
        return self.core_counters[core_id].execution_cycles

    def snapshot(self, tua_core: int) -> dict[str, object]:
        """Everything that must be bit-identical across kernel modes.

        The one definition the equivalence matrices, the fuzzer and the
        kernel bench compare.  :attr:`observability` is left out: execution
        strategies legitimately differ there.
        """
        counters = sorted(self.core_counters.items())
        return {
            "config_label": self.config_label,
            "truncated": self.truncated,
            "total_cycles": self.total_cycles,
            "tua_cycles": (
                self.execution_cycles(tua_core) if tua_core in self.core_counters else 0
            ),
            "core_counters": {core: dict(c.as_dict()) for core, c in counters},
            "request_latencies": {core: list(c.request_latencies) for core, c in counters},
            "bus_utilization": self.bus_utilization,
            "bandwidth_shares": list(self.bandwidth_shares),
            "grants_per_core": list(self.grants_per_core),
            "cycles_per_core": list(self.cycles_per_core),
            "cba_blocked_cycles": self.cba_blocked_cycles,
            "l1_miss_rates": dict(sorted(self.l1_miss_rates.items())),
            "l2_miss_rate": self.l2_miss_rate,
            "extra": self.extra,
        }


class MulticoreSystem:
    """Builder and runner for one simulated multicore platform instance.

    The code that builds a system owns it and closes it when done, usually
    with ``with MulticoreSystem(...) as system:``.  :meth:`close` cuts the
    back-edges the run wiring creates (kernel to components, bus to
    masters, cores to the system and to their observers), so the platform
    is freed by reference counting as soon as its owner drops it, instead
    of waiting for a garbage-collector pass.  Its state stays readable
    after the close; only :meth:`run` and :meth:`reset` refuse.
    """

    def __init__(
        self,
        config: PlatformConfig,
        seed: int = 0,
        run_index: int = 0,
        trace: TraceRecorder | None = None,
        label: str = "",
        mode: KernelMode = KernelMode.PRODUCTION,
        obs: ObservabilityConfig | None = None,
    ) -> None:
        """Build the platform.

        ``mode`` selects how the kernel executes it
        (:class:`~repro.sim.config.KernelMode`); every mode produces
        bit-identical results.  Each task's trace is drawn once, into parallel
        ``(gap, address, kind)`` columns that the core consumes with a cursor;
        resetting and re-running the *same* system replays that sequence.
        Each run builds a fresh system (the campaign/scenario protocol), so
        every run draws its own traces.

        ``obs`` opts into instrumentation
        (:class:`~repro.sim.config.ObservabilityConfig`): a timeline
        :class:`~repro.sim.trace.TraceRecorder` becomes the kernel's trace
        (unless an explicit ``trace`` was passed, which wins), and kernel
        profiling is enabled at :meth:`finalize`.
        ``None`` (the default) changes nothing anywhere on the hot path.
        """
        self.config = config
        self.label = label or config.arbitration
        self.obs = obs
        self.profiler: KernelProfiler | None = None
        if trace is None and obs is not None and obs.timeline:
            trace = TraceRecorder(capacity=obs.timeline_capacity)
        self.kernel = Kernel(
            seed=seed,
            run_index=run_index,
            frequency_hz=config.frequency_hz,
            trace=trace,
            mode=mode,
        )
        streams = self.kernel.streams
        self.latency_table = LatencyTable(config.bus_timings)

        # Memory side (bus slave): partitioned L2 -> controller -> DRAM.
        mem_cfg = config.memory
        if mem_cfg.model == "banked":
            dram: DRAM | BankedDRAM = BankedDRAM(
                num_banks=mem_cfg.num_banks,
                row_bytes=mem_cfg.row_bytes,
                row_hit_latency=mem_cfg.row_hit_latency,
                row_miss_latency=mem_cfg.row_miss_latency,
                row_conflict_latency=mem_cfg.row_conflict_latency,
            )
        else:
            dram = DRAM(access_latency=config.bus_timings.memory_latency)
        self.dram = dram
        self.memory_controller = MemoryController(dram, policy=mem_cfg.controller_policy)
        self.l2 = build_l2(
            geometry=config.l2_geometry,
            num_cores=config.num_cores,
            partitioned=config.l2_partitioned,
            random_caches=config.random_caches,
            rng=streams.stream("l2"),
        )
        self.l2_slave = L2BusSlave(
            self.l2,
            self.memory_controller,
            self.latency_table,
            dynamic_memory=mem_cfg.model == "banked",
        )

        # Arbiter, optionally wrapped by CBA.
        base_arbiter = create_arbiter(
            config.arbitration,
            config.num_cores,
            rng=streams.stream("arbiter"),
            slot_cycles=config.bus_timings.max_latency,
        )
        self.base_arbiter: Arbiter = base_arbiter
        self.cba: CreditBasedArbiter | None = None
        arbiter: Arbiter = base_arbiter
        if config.use_cba:
            self.cba = CreditBasedArbiter(base_arbiter, config.cba)
            arbiter = self.cba
        self.arbiter = arbiter

        self.bus = SharedBus(
            name="bus",
            num_masters=config.num_cores,
            arbiter=arbiter,
            slave=self.l2_slave,
            max_latency=config.bus_timings.max_latency,
        )
        self.monitor = BusMonitor("bus_monitor", self.bus, window_cycles=1000)

        self.cores: dict[int, CoreModel] = {}
        self.contenders: dict[int, GreedyContender | WCETModeContender] = {}
        #: ``(observed core, contender)`` of every WCET-mode contender.
        self._tua_observers: list[tuple[int, WCETModeContender]] = []
        #: Initial CBA budgets set with :meth:`set_tua_initial_budget`, which
        #: :meth:`reset` sets again after the credit bank's own reset.
        self._initial_budgets: dict[int, int] = {}
        #: Every random stream's state at :meth:`finalize` (every stream
        #: exists by then), which :meth:`reset` rewinds to.
        self._stream_states: dict[str, dict] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def _check_core_slot(self, core_id: int) -> None:
        if self._finalized:
            raise ConfigurationError("cannot add components after the system was finalized")
        if not 0 <= core_id < self.config.num_cores:
            raise ConfigurationError(f"core id {core_id} out of range")
        if core_id in self.cores or core_id in self.contenders:
            raise ConfigurationError(f"core {core_id} is already occupied")

    def add_task(self, core_id: int, workload: WorkloadSpec) -> CoreModel:
        """Place ``workload`` on ``core_id`` and return the core model."""
        self._check_core_slot(core_id)
        streams = self.kernel.streams
        l1 = build_l1_cache(
            name=f"core{core_id}.l1d",
            geometry=self.config.l1_geometry,
            random_caches=self.config.random_caches,
            rng=streams.stream(f"l1d.core{core_id}"),
        )
        # Give each core a private address range so tasks do not share data:
        # the paper's workloads are independent programs consolidated on the
        # multicore, interfering only through the bus (the L2 is partitioned).
        spec = workload.with_updates(
            base_address=workload.base_address + core_id * 0x0100_0000
        )
        trace = spec.build_trace(streams.stream(f"workload.core{core_id}"))
        core = CoreModel(
            name=f"core{core_id}",
            core_id=core_id,
            trace=trace,
            l1_data=l1,
            bus=self.bus,
            store_buffer_entries=self.config.store_buffer_entries,
            mode=self.kernel.mode,
        )
        self.cores[core_id] = core
        return core

    def add_greedy_contender(self, core_id: int) -> GreedyContender:
        """Place an operation-mode worst-case contender on ``core_id``."""
        self._check_core_slot(core_id)
        contender = GreedyContender(
            name=f"contender{core_id}",
            core_id=core_id,
            bus=self.bus,
            address=0x6000_0000 + core_id * 0x0100_0000,
        )
        self.contenders[core_id] = contender
        return contender

    def add_wcet_contender(self, core_id: int, tua_core: int) -> WCETModeContender:
        """Place a WCET-estimation-mode contender on ``core_id``.

        The contender observes the task under analysis on ``tua_core``
        (its request-ready line) and its own CBA budget, per Table I.
        """
        self._check_core_slot(core_id)
        if tua_core == core_id:
            raise ConfigurationError("the contender cannot observe itself as the TuA")

        # finalize() binds the TuA core's request line once it is placed.
        contender = WCETModeContender(
            name=f"wcet_contender{core_id}",
            core_id=core_id,
            bus=self.bus,
            tua_request_ready=_no_tua_request,
            cba=self.cba,
            address=0x7000_0000 + core_id * 0x0100_0000,
        )
        self.contenders[core_id] = contender
        self._tua_observers.append((tua_core, contender))
        return contender

    def set_tua_initial_budget(self, core_id: int, budget: int = 0) -> None:
        """Zero (or set) the starting budget of the task under analysis.

        The paper collects analysis-time measurements with the TuA starting
        at zero budget so the first request is delayed as much as possible.
        Ignored when CBA is not enabled.
        """
        if self.cba is not None:
            self.cba.set_initial_budget(core_id, budget)
            self._initial_budgets[core_id] = budget

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Register every component with the kernel in pipeline order."""
        if self._finalized:
            return
        if not self.cores:
            raise ConfigurationError("the system has no task to run")
        for core_id in sorted(self.cores):
            self.kernel.register(self.cores[core_id])
        for core_id in sorted(self.contenders):
            self.kernel.register(self.contenders[core_id])
        for tua_core, contender in self._tua_observers:
            tua = self.cores.get(tua_core)
            if tua is not None:
                contender.tua_request_ready = tua.request_ready
                tua.request_observers.append(contender.on_tua_line)
        self.kernel.register(self.bus)
        self._num_tasks = len(self.cores)
        self._finished_tasks = sum(core.finished for core in self.cores.values())
        for core in self.cores.values():
            core.on_finish = self._count_finished
        self.kernel.add_stop_condition(self._all_tasks_finished)
        if self.cba is not None and self.kernel.trace.enabled:
            self.cba.attach_trace(self.kernel.trace, self.kernel.clock.cycle)
        if self.obs is not None and self.obs.profile_kernel:
            self.profiler = KernelProfiler()
            self.kernel.enable_profiling(self.profiler)
        self._stream_states = self.kernel.streams.states()
        self._finalized = True

    def _count_finished(self, delta: int) -> None:
        """A core entered (+1) or left (-1, by a reset) ``FINISHED``."""
        self._finished_tasks += delta

    def _all_tasks_finished(self) -> bool:
        # Evaluated once per executed cycle, so it reads a count the cores
        # update when they finish.
        return self._finished_tasks == self._num_tasks

    def run(
        self, max_cycles: int = 5_000_000, allow_truncation: bool = False
    ) -> SystemResult:
        """Run until every task finishes (or ``max_cycles``) and summarise.

        By default hitting the cycle budget before every task finished is an
        error (a truncated run's execution times are meaningless for the
        paper's statistics).  Campaign-style callers that prefer to record the
        truncation and keep going pass ``allow_truncation=True`` and check
        :attr:`SystemResult.truncated`.
        """
        self._check_open()
        self.finalize()
        self.kernel.run(max_cycles=max_cycles)
        if self.cba is not None and self.kernel.trace.enabled:
            self.cba.sync_trace(self.kernel.clock.cycle)
        if self.kernel.truncated and not allow_truncation:
            raise ConfigurationError(
                f"simulation hit the {max_cycles}-cycle limit before all tasks finished; "
                "increase max_cycles or shrink the workload"
            )
        return self._collect_result()

    def reset(self) -> None:
        """Return the platform to its state at :meth:`finalize`, so the next
        :meth:`run` replays the first one exactly.

        Resets the clock and every registered component (``Kernel.reset``:
        the cores with their L1s and pre-drawn traces, the contenders, the
        bus with its arbiter and CBA credit bank, whose initial budgets are
        set again), the L2 slave (the L2 contents, the memory controller,
        the DRAM rows and their stats) and the bus monitor, and rewinds
        every random stream (arbitration, L1/L2 replacement) to where it
        stood at :meth:`finalize`.
        """
        self._check_open()
        self.kernel.reset()
        self.l2_slave.reset()
        self.monitor.reset()
        if self.cba is not None:
            for core_id, budget in self._initial_budgets.items():
                self.cba.set_initial_budget(core_id, budget)
        self.kernel.streams.rewind(self._stream_states)

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Cut every reference cycle through the platform; idempotent.

        Call it (or leave the ``with`` block) once :meth:`run` has returned
        and its result was read.  Afterwards :meth:`run` and :meth:`reset`
        raise :class:`~repro.sim.errors.ConfigurationError`.
        """
        self.kernel.close()
        self.bus.disconnect_masters()
        for core in self.cores.values():
            core.on_finish = None
            core.request_observers.clear()

    def _check_open(self) -> None:
        if self.kernel.closed:
            raise ConfigurationError("the system was closed")

    def __enter__(self) -> MulticoreSystem:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _collect_result(self) -> SystemResult:
        num_cores = self.config.num_cores
        dram_stats = self.dram.stats
        counters = {core_id: core.counters for core_id, core in self.cores.items()}
        l1_miss_rates = {
            core_id: core.l1_data.miss_rate() for core_id, core in self.cores.items()
        }
        return SystemResult(
            config_label=self.label,
            total_cycles=self.kernel.clock.cycle,
            core_counters=counters,
            bus_utilization=self.bus.utilization(),
            bandwidth_shares=self.bus.bandwidth_shares(),
            grants_per_core=[self.bus.grants(m) for m in range(num_cores)],
            cycles_per_core=[self.bus.cycles_granted(m) for m in range(num_cores)],
            cba_blocked_cycles=self.cba.blocked_cycles if self.cba else 0,
            l1_miss_rates=l1_miss_rates,
            l2_miss_rate=self.l2.miss_rate(),
            truncated=self.kernel.truncated,
            extra={
                "arbitration": self.config.arbitration,
                "use_cba": self.config.use_cba,
                "contender_requests": {
                    core_id: contender.requests_completed
                    for core_id, contender in self.contenders.items()
                },
                # DRAM/controller state evolution is part of the bit-identity
                # contract: the equivalence matrix and the fuzzer compare
                # these across kernel modes like every other counter.
                "memory": {
                    "model": self.config.memory.model,
                    "controller_policy": self.config.memory.controller_policy,
                    "reads": dram_stats.counter("reads").value,
                    "writes": dram_stats.counter("writes").value,
                    "row_hits": dram_stats.counter("row_hits").value,
                    "row_misses": dram_stats.counter("row_misses").value,
                    "row_conflicts": dram_stats.counter("row_conflicts").value,
                    "busy_cycles": self.memory_controller.stats.counter(
                        "busy_cycles"
                    ).value,
                    "reordered_accesses": self.memory_controller.stats.counter(
                        "reordered_accesses"
                    ).value,
                },
            },
            observability={
                "batched_items": sum(c.batched_items for c in self.cores.values()),
                "batch_stretches": sum(c.batch_stretches for c in self.cores.values()),
                "cycles_skipped": self.kernel.cycles_skipped,
            },
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def collect_metrics(self, registry: MetricsRegistry | None = None) -> MetricsRegistry:
        """Fold everything this system counted into a labelled metrics registry.

        Every series carries a ``system=<label>`` label (per-core series add
        ``core=<id>``), so registries from several runs or configurations can
        be merged without collisions.  Pass an existing ``registry`` to
        accumulate across systems; the (possibly fresh) registry is returned.
        """
        if registry is None:
            registry = MetricsRegistry()
        label = self.label
        registry.ingest_group(self.bus.stats, prefix="bus.", system=label)
        registry.gauge("bus.utilization", system=label).set(self.bus.utilization())
        for core_id, core in self.cores.items():
            registry.ingest_group(core.obs, prefix="core.", system=label, core=core_id)
            values = dict(core.counters.as_dict())
            values.pop("core_id", None)
            registry.ingest_values(values, prefix="core.", system=label, core=core_id)
        mon = self.monitor
        registry.counter("bus.monitor_cycles_observed", system=label).increment(
            mon.total_cycles_observed
        )
        for master, busy in enumerate(mon.total_busy_per_master):
            registry.counter("bus.monitor_busy_cycles", system=label, core=master).increment(
                busy
            )
        kernel = self.kernel
        if self.cba is not None:
            registry.counter("cba.blocked_cycles", system=label).increment(
                self.cba.blocked_cycles
            )
            for core_id, balance in enumerate(self.cba.budgets(kernel.clock.cycle)):
                registry.gauge("cba.budget", system=label, core=core_id).set(balance)
        registry.counter("kernel.cycles_total", system=label).increment(kernel.clock.cycle)
        registry.counter("kernel.cycles_skipped", system=label).increment(
            kernel.cycles_skipped
        )
        return registry
