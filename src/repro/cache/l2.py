"""Shared, partitioned L2 cache and the bus-slave view of the memory hierarchy.

The paper's platform shares one L2 cache among the four cores but *partitions*
it per core, so one core's misses never evict another core's lines (a common
choice in real-time multicores because it removes cache-contention
interference; the bus then remains the only shared resource, which is what
the paper studies).  The L2 is write-back, so a miss that evicts a dirty
victim performs two memory accesses — the 56-cycle worst case that defines
``MaxL``.

:class:`L2BusSlave` is the object the bus talks to: it receives a granted
:class:`~repro.bus.transaction.BusRequest`, walks the L2 partition of the
requesting core and the memory controller behind it, and returns the number
of cycles the (non-split) bus is held.
"""

from __future__ import annotations

import numpy as np

from ..bus.latency import LatencyTable, TransactionClass
from ..bus.transaction import AccessType, BusRequest
from ..memory.controller import MemoryController
from ..sim.config import CacheGeometry
from ..sim.errors import ConfigurationError
from ..sim.stats import StatGroup
from .cache import SetAssociativeCache
from .placement import ModuloPlacement, RandomPlacement
from .replacement import LRUReplacement, RandomReplacement

__all__ = ["PartitionedL2", "L2BusSlave", "build_l2"]


class PartitionedL2:
    """A shared L2 split into per-core partitions."""

    def __init__(self, partitions: list[SetAssociativeCache]) -> None:
        if not partitions:
            raise ConfigurationError("the L2 needs at least one partition")
        self.partitions = partitions

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    def partition_for(self, core_id: int) -> SetAssociativeCache:
        """The partition owned by ``core_id``."""
        return self.partitions[core_id % self.num_partitions]

    def access(self, core_id: int, address: int, is_write: bool, cycle: int):
        """Access the partition of ``core_id``; same result type as the cache."""
        return self.partition_for(core_id).access(address, is_write, cycle)

    def miss_rate(self) -> float:
        accesses = sum(p.accesses for p in self.partitions)
        misses = sum(p.misses for p in self.partitions)
        if not accesses:
            return 0.0
        return misses / accesses

    def reset(self) -> None:
        for partition in self.partitions:
            partition.reset()


def build_l2(
    geometry: CacheGeometry,
    num_cores: int,
    partitioned: bool,
    random_caches: bool,
    rng: np.random.Generator,
) -> PartitionedL2:
    """Build the shared L2 (partitioned or unified) with the requested policies.

    When partitioned, each core receives ``1/num_cores`` of the total capacity
    (sets are divided, associativity preserved), matching the paper's setup.
    When unified, a single cache is shared by every core (useful for
    ablations; note this reintroduces inter-core cache interference).
    """
    def make_cache(name: str, geom: CacheGeometry) -> SetAssociativeCache:
        if random_caches:
            placement = RandomPlacement(
                geom.num_sets, geom.line_bytes, seed=int(rng.integers(0, 2**63))
            )
            replacement = RandomReplacement(rng)
        else:
            placement = ModuloPlacement(geom.num_sets, geom.line_bytes)
            replacement = LRUReplacement()
        return SetAssociativeCache(
            name=name,
            geometry=geom,
            placement=placement,
            replacement=replacement,
            write_back=True,
            write_allocate=True,
        )

    if not partitioned:
        return PartitionedL2([make_cache("l2", geometry)])

    partition_size = geometry.size_bytes // num_cores
    min_size = geometry.line_bytes * geometry.associativity
    if partition_size < min_size:
        raise ConfigurationError(
            "L2 too small to partition: each partition needs at least "
            f"{min_size} bytes, got {partition_size}"
        )
    partition_geometry = CacheGeometry(
        size_bytes=partition_size,
        line_bytes=geometry.line_bytes,
        associativity=geometry.associativity,
    )
    partitions = [
        make_cache(f"l2.partition{core}", partition_geometry) for core in range(num_cores)
    ]
    return PartitionedL2(partitions)


class L2BusSlave:
    """Bus-slave adapter: resolves granted requests against L2 + memory.

    With the default fixed memory model every transaction class has a frozen
    duration (the paper's latency table).  With ``dynamic_memory=True`` (the
    banked DRAM model) the memory-touching classes are priced per transaction
    instead: the slave hands the controller the transaction's real access
    list — victim writeback address reconstructed from the evicted tag, then
    the line fetch — and adds the returned DRAM latency to the bus overhead.
    Either way the duration is resolved synchronously at grant time, so all
    kernel modes observe identical bank-state evolution.
    """

    def __init__(
        self,
        l2: PartitionedL2,
        memory: MemoryController,
        latency_table: LatencyTable,
        dynamic_memory: bool = False,
    ) -> None:
        self.l2 = l2
        self.memory = memory
        self.latency_table = latency_table
        self.dynamic_memory = dynamic_memory
        self._line_bytes = l2.partitions[0].placement.line_bytes
        self._bus_overhead = latency_table.timings.bus_overhead
        self.stats = StatGroup(name="l2_slave.stats")
        # resolve() runs once per bus transaction; bind the per-class counter
        # family up front instead of formatting its key on every call.
        self._c_requests = self.stats.counter("requests")
        self._c_by_class = {
            kind: self.stats.counter(f"class_{kind.value}") for kind in TransactionClass
        }
        self._sample_duration = self.stats.histogram("duration").sampler()
        # The timings are frozen; flatten the per-class duration chain into
        # one dict lookup per transaction.
        self._duration_by_class = {
            kind: latency_table.duration(kind) for kind in TransactionClass
        }
        #: The ``transaction_class`` annotation of each class, read once
        #: here rather than through the enum's ``value`` per transaction.
        self._class_names = {kind: kind.value for kind in TransactionClass}

    def classify(self, request: BusRequest, cycle: int) -> TransactionClass:
        """Serve ``request`` functionally and classify its timing behaviour."""
        if request.access is AccessType.ATOMIC:
            # Atomic operations bypass the L2 allocation decision: by
            # definition they perform an indivisible read+write to memory.
            self.memory.access(read=True)
            self.memory.access(read=False)
            return TransactionClass.ATOMIC

        is_write = request.access is AccessType.WRITE
        result = self.l2.access(request.master_id, request.address, is_write, cycle)
        if result.hit:
            if is_write:
                return TransactionClass.L2_HIT_WRITE
            return TransactionClass.L2_HIT_READ
        # L2 miss: one memory access for the fetch, plus one more when a
        # dirty victim must be written back first.
        self.memory.access(read=True)
        if result.writeback:
            self.memory.access(read=False)
            return TransactionClass.L2_MISS_DIRTY
        return TransactionClass.L2_MISS_CLEAN

    def _serve_dynamic(self, request: BusRequest, cycle: int) -> tuple[TransactionClass, int]:
        """Serve ``request`` with per-transaction DRAM timing (banked model)."""
        address = request.address
        if request.access is AccessType.ATOMIC:
            latency = self.memory.transaction(((address, True), (address, False)))
            return TransactionClass.ATOMIC, latency + self._bus_overhead

        is_write = request.access is AccessType.WRITE
        result = self.l2.access(request.master_id, address, is_write, cycle)
        if result.hit:
            if is_write:
                kind = TransactionClass.L2_HIT_WRITE
            else:
                kind = TransactionClass.L2_HIT_READ
            return kind, self._duration_by_class[kind]
        if result.writeback:
            # The tag is the full block address, so the victim's memory
            # address is exactly tag * line_bytes.  Program order writes the
            # dirty victim back before fetching the new line; FR-FCFS may
            # reorder the pair when the fetch row is already open.
            victim = result.evicted_tag * self._line_bytes
            latency = self.memory.transaction(((victim, False), (address, True)))
            return TransactionClass.L2_MISS_DIRTY, latency + self._bus_overhead
        latency = self.memory.transaction(((address, True),))
        return TransactionClass.L2_MISS_CLEAN, latency + self._bus_overhead

    def resolve(self, request: BusRequest, cycle: int) -> int:
        """Bus-slave protocol entry point: return the bus hold time in cycles."""
        if self.dynamic_memory:
            kind, duration = self._serve_dynamic(request, cycle)
        else:
            kind = self.classify(request, cycle)
            duration = self._duration_by_class[kind]
        request.annotations["transaction_class"] = self._class_names[kind]
        self._c_by_class[kind].value += 1
        self._c_requests.value += 1
        self._sample_duration(duration)
        return duration

    def reset(self) -> None:
        self.l2.reset()
        self.memory.reset()
        self.stats.reset()
