"""Configuration dataclasses shared across the platform.

These dataclasses collect every knob the paper's platform exposes (latencies,
cache geometry, arbitration policy, CBA parameters) in one validated place.
The :mod:`repro.platform` package consumes them to assemble a system.

Defaults reproduce the configuration described in Section IV-A of the paper:

* 4 cores;
* bus transactions between 5 cycles (L2 read hit) and 56 cycles (two memory
  accesses of 28 cycles each, e.g. a dirty-line eviction plus a line fetch or
  an atomic read+write);
* memory latency 28 cycles;
* ``MaxL = 56``;
* CBA budget counters saturate at ``N * MaxL = 224``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import ConfigurationError

__all__ = [
    "BusTimings",
    "CacheGeometry",
    "CBAParameters",
    "KernelMode",
    "MemoryConfig",
    "ObservabilityConfig",
    "PlatformConfig",
    "DEFAULT_BUS_TIMINGS",
    "DEFAULT_L1_GEOMETRY",
    "DEFAULT_L2_GEOMETRY",
]


@dataclass(frozen=True)
class BusTimings:
    """Latency model of the non-split bus and the memory behind it.

    All values are in bus-clock cycles and correspond to the total time the
    bus is *held* by one transaction (the bus is non-split, so the requesting
    core occupies it for the whole turnaround).
    """

    l2_hit_read: int = 5
    l2_hit_write: int = 6
    memory_latency: int = 28
    bus_overhead: int = 0
    #: Longest possible transaction: two back-to-back memory accesses, e.g. a
    #: dirty-line eviction followed by the line fetch, or an atomic read+write.
    max_latency: int = 56

    def __post_init__(self) -> None:
        if self.l2_hit_read <= 0 or self.l2_hit_write <= 0:
            raise ConfigurationError("L2 hit latencies must be positive")
        if self.memory_latency <= 0:
            raise ConfigurationError("memory latency must be positive")
        if self.bus_overhead < 0:
            raise ConfigurationError("bus overhead cannot be negative")
        if self.max_latency < max(self.l2_hit_read, self.l2_hit_write):
            raise ConfigurationError("max_latency must cover the L2 hit latencies")
        if self.max_latency < 2 * self.memory_latency:
            raise ConfigurationError(
                "max_latency must cover two memory accesses "
                f"(got {self.max_latency} < {2 * self.memory_latency})"
            )

    def l2_miss_clean(self) -> int:
        """Bus hold time of an L2 miss that does not evict a dirty line."""
        return self.memory_latency + self.bus_overhead

    def l2_miss_dirty(self) -> int:
        """Bus hold time of an L2 miss that writes back a dirty victim."""
        return 2 * self.memory_latency + self.bus_overhead

    def atomic(self) -> int:
        """Bus hold time of an atomic read-modify-write operation."""
        return 2 * self.memory_latency + self.bus_overhead


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ConfigurationError("cache geometry values must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigurationError(
                "cache size must be a multiple of line size times associativity"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError("cache line size must be a power of two")

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass(frozen=True)
class CBAParameters:
    """Parameters of the credit-based arbitration mechanism.

    ``max_latency`` is the paper's ``MaxL``.  Budgets are stored scaled so all
    updates are integral: the *scale* is the sum of the per-core replenishment
    shares (``num_cores`` for homogeneous CBA, where every share is 1).  Every
    cycle each core's budget increases by its share, saturating at
    ``scale * max_latency`` (224 for the paper's 4 cores and MaxL=56); every
    cycle a core holds the bus its budget decreases by ``scale`` (4 in the
    paper), i.e. exactly one unscaled cycle of budget.  The invariant
    ``sum(shares) == scale == drain per busy cycle`` is what makes the total
    sustainable bandwidth equal to 100% of the bus.
    """

    max_latency: int = 56
    num_cores: int = 4
    #: Scaled per-cycle replenishment for each core.  Homogeneous CBA uses 1
    #: (i.e. 1/N per cycle unscaled).  H-CBA overrides this per core such that
    #: the shares still add up to ``num_cores``.
    replenish_shares: tuple[int, ...] | None = None
    #: Per-core budget cap override (scaled).  ``None`` means ``num_cores*max_latency``.
    budget_caps: tuple[int, ...] | None = None
    #: Budget each core starts with (scaled).  The paper sets the task under
    #: analysis to start with zero budget during WCET estimation.
    initial_budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_latency <= 0:
            raise ConfigurationError("MaxL must be positive")
        if self.num_cores <= 0:
            raise ConfigurationError("number of cores must be positive")
        if self.replenish_shares is not None:
            if len(self.replenish_shares) != self.num_cores:
                raise ConfigurationError(
                    "replenish_shares must have one entry per core"
                )
            if any(share <= 0 for share in self.replenish_shares):
                raise ConfigurationError("replenishment shares must be positive")
        if self.budget_caps is not None:
            if len(self.budget_caps) != self.num_cores:
                raise ConfigurationError("budget_caps must have one entry per core")
            if any(cap < self.scaled_full_budget for cap in self.budget_caps):
                raise ConfigurationError(
                    "per-core budget caps cannot be below the full budget "
                    f"({self.scaled_full_budget})"
                )
        if self.initial_budget is not None and self.initial_budget < 0:
            raise ConfigurationError("initial budget cannot be negative")

    @property
    def scale(self) -> int:
        """Scaling factor of the integer budget arithmetic.

        Equals the sum of the per-core replenishment shares, which is also the
        budget drained per busy cycle.  Homogeneous CBA: ``num_cores``.
        """
        if self.replenish_shares is None:
            return self.num_cores
        return sum(self.replenish_shares)

    @property
    def scaled_full_budget(self) -> int:
        """The scaled budget value that makes a core eligible (scale * MaxL)."""
        return self.scale * self.max_latency

    @property
    def drain_per_busy_cycle(self) -> int:
        """Scaled budget charged for each cycle a core holds the bus."""
        return self.scale

    def share_for(self, core: int) -> int:
        """Scaled replenishment share of ``core`` (defaults to 1)."""
        if self.replenish_shares is None:
            return 1
        return self.replenish_shares[core]

    def cap_for(self, core: int) -> int:
        """Scaled budget cap of ``core``."""
        if self.budget_caps is None:
            return self.scaled_full_budget
        return self.budget_caps[core]

    def initial_for(self, core: int) -> int:
        """Scaled initial budget of ``core``."""
        if self.initial_budget is None:
            return self.scaled_full_budget
        return min(self.initial_budget, self.cap_for(core))


@dataclass(frozen=True)
class MemoryConfig:
    """Timing model of the DRAM behind the memory controller.

    ``model="fixed"`` reproduces the paper's platform: every memory access
    costs :attr:`BusTimings.memory_latency` cycles regardless of address, so
    the bus is the only contention point.  ``model="banked"`` enables the
    second contention point the CBA analysis extends to naturally: DRAM banks
    with per-bank row buffers, where an access costs

    * :attr:`row_hit_latency` when its row is already open in its bank,
    * :attr:`row_miss_latency` when the bank has no row open (row activate),
    * :attr:`row_conflict_latency` when another row is open (precharge +
      activate).

    The controller serves every access of one bus transaction back to back;
    :attr:`controller_policy` picks the order: ``"in_order"`` preserves the
    transaction's own sequence (writeback before fetch), ``"frfcfs"``
    (first-ready, first-come-first-served) serves accesses whose row is
    already open first, the standard open-row-priority reordering of real
    memory controllers.  Both are deterministic, so every kernel mode
    resolves identical timings.
    """

    model: str = "fixed"
    num_banks: int = 4
    row_bytes: int = 1024
    row_hit_latency: int = 16
    row_miss_latency: int = 24
    row_conflict_latency: int = 28
    controller_policy: str = "in_order"

    def __post_init__(self) -> None:
        if self.model not in ("fixed", "banked"):
            raise ConfigurationError(f"unknown memory model {self.model!r}")
        if self.controller_policy not in ("in_order", "frfcfs"):
            raise ConfigurationError(
                f"unknown memory controller policy {self.controller_policy!r}"
            )
        if self.num_banks <= 0:
            raise ConfigurationError("DRAM needs at least one bank")
        if self.row_bytes <= 0 or self.row_bytes & (self.row_bytes - 1):
            raise ConfigurationError("DRAM row size must be a positive power of two")
        if not 0 < self.row_hit_latency <= self.row_miss_latency <= self.row_conflict_latency:
            raise ConfigurationError(
                "DRAM latencies must satisfy 0 < hit <= miss <= conflict "
                f"(got {self.row_hit_latency}/{self.row_miss_latency}"
                f"/{self.row_conflict_latency})"
            )

    @property
    def worst_access_latency(self) -> int:
        """Latency of the slowest single access under this model."""
        return self.row_conflict_latency if self.model == "banked" else 0


class KernelMode(str, Enum):
    """How :meth:`~repro.sim.kernel.Kernel.run` executes a platform.

    The three modes are bit-identical in every simulated output (the
    equivalence matrices and ``repro fuzz`` enforce it); they differ only in
    how much work they leave out, and each mode adds one mechanism to the one
    before it, so a divergence names the mechanism at fault.  Like
    :class:`ObservabilityConfig` it is not part of :class:`PlatformConfig`:
    it cannot change what a run computes.
    """

    #: The reference oracle: every component ticks on every cycle and no
    #: component computes or pushes a wake.
    STEPPING = "stepping"
    #: Due-only dispatch, without the cores' batch interpreter: the fault
    #: localiser between stepping and production.
    FAST_FORWARD = "fast_forward"
    #: Due-only dispatch plus the batch interpreter (the default).
    PRODUCTION = "production"


@dataclass(frozen=True)
class ObservabilityConfig:
    """Opt-in instrumentation of one simulated system.

    Deliberately *not* a field of :class:`PlatformConfig`: observability never
    changes what a run computes, and platform configurations are content-hashed
    into campaign job IDs — folding these knobs in would invalidate every
    existing artifact store for a setting that cannot affect the results.
    """

    #: Record a timeline of simulation events (bus transactions, CBA credit
    #: dynamics, batch stretches, kernel jumps) for Chrome trace-event export.
    timeline: bool = False
    #: Bound the timeline to the most recent N events (ring buffer);
    #: ``None`` keeps every event.
    timeline_capacity: int | None = None
    #: Attribute ``Kernel.run`` wall-clock to component hooks.
    profile_kernel: bool = False

    def __post_init__(self) -> None:
        if self.timeline_capacity is not None and self.timeline_capacity <= 0:
            raise ConfigurationError("timeline_capacity must be positive")
        if self.timeline_capacity is not None and not self.timeline:
            raise ConfigurationError("timeline_capacity requires timeline=True")

    @property
    def enabled(self) -> bool:
        """True when any instrumentation is requested."""
        return self.timeline or self.profile_kernel


DEFAULT_BUS_TIMINGS = BusTimings()
#: LEON3-class private L1 (4 KiB, 32-byte lines, 4-way).
DEFAULT_L1_GEOMETRY = CacheGeometry(size_bytes=4 * 1024, line_bytes=32, associativity=4)
#: Shared L2; partitioned per core (32 KiB per core with the default 4 cores).
DEFAULT_L2_GEOMETRY = CacheGeometry(size_bytes=128 * 1024, line_bytes=32, associativity=4)


@dataclass(frozen=True)
class PlatformConfig:
    """Top-level configuration of the simulated multicore platform."""

    num_cores: int = 4
    arbitration: str = "random_permutations"
    use_cba: bool = False
    cba: CBAParameters = field(default_factory=CBAParameters)
    bus_timings: BusTimings = field(default_factory=BusTimings)
    l1_geometry: CacheGeometry = DEFAULT_L1_GEOMETRY
    l2_geometry: CacheGeometry = DEFAULT_L2_GEOMETRY
    #: L2 is partitioned per core (paper setup), so one core cannot evict
    #: another core's lines; each partition gets 1/num_cores of the capacity.
    l2_partitioned: bool = True
    #: Cache randomisation (random placement + replacement) for MBPTA.
    random_caches: bool = True
    #: Entries of the per-core write (store) buffer; 0 disables it and keeps
    #: stores fully blocking, which is the configuration used for the paper's
    #: experiments (see DESIGN.md).  Real LEON3 pipelines have a small buffer,
    #: exposed here for ablation studies.
    store_buffer_entries: int = 0
    #: DRAM timing model behind the memory controller.  The default fixed
    #: model reproduces the paper; the banked model adds row-buffer
    #: contention as a second shared resource (see :class:`MemoryConfig`).
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    frequency_hz: float = 100_000_000.0

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigurationError("platform needs at least one core")
        if self.memory.model == "banked":
            # The longest banked transaction is two worst-case (row conflict)
            # accesses plus the bus overhead — it must fit under MaxL or the
            # bus would reject the slave's duration.
            worst = 2 * self.memory.row_conflict_latency + self.bus_timings.bus_overhead
            if worst > self.bus_timings.max_latency:
                raise ConfigurationError(
                    "max_latency must cover the worst banked DRAM transaction "
                    f"(got {self.bus_timings.max_latency} < {worst})"
                )
        if self.store_buffer_entries < 0:
            raise ConfigurationError("store_buffer_entries cannot be negative")
        if self.cba.num_cores != self.num_cores:
            raise ConfigurationError(
                "CBAParameters.num_cores must match PlatformConfig.num_cores "
                f"({self.cba.num_cores} != {self.num_cores})"
            )
        if self.cba.max_latency != self.bus_timings.max_latency:
            raise ConfigurationError(
                "CBA MaxL must equal the bus maximum transaction latency "
                f"({self.cba.max_latency} != {self.bus_timings.max_latency})"
            )

    def with_updates(self, **kwargs: object) -> "PlatformConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
