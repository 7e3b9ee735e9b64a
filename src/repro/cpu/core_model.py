"""Trace-driven in-order core model.

The paper's platform uses pipelined in-order LEON3 (SPARC V8) cores.  For the
phenomena the paper studies — who gets the bus, for how long, and how long a
task is stalled waiting for it — the relevant abstraction of such a core is a
*blocking, in-order* consumer of a memory-access trace:

* while computing, the core does not touch the bus;
* a memory access first probes the private L1; a hit costs the L1 latency;
* an L1 miss (or any store, because the L1 data cache is write-through)
  issues one bus request and the core stalls until the request completes,
  because the core is in-order and blocking (no MSHRs, one outstanding
  request), which is also what makes requests non-split on the bus.

The core walks a :class:`~repro.cpu.trace.MaterializedTrace` with a plain
integer cursor over its pre-computed ``(gap, address, kind)`` columns and
accumulates :class:`~repro.cpu.counters.CoreCounters`.  Each item is loaded
into scalar pending fields (``_pending_address``, ``_pending_kind``) that the
rest of the state machine reads.  Every kernel mode walks the same columns,
and :meth:`CoreModel.reset` rewinds the cursor, so a reset core replays its
pre-drawn sequence.

On top of the cursor sits the **batch interpreter** (on in
``KernelMode.PRODUCTION``): whenever the trace cursor advances, the core scans
the maximal upcoming stretch of items that provably never touch the bus —
pure-compute gaps and reads that hit in the L1, decided against per-run
pre-computed ``(set index, tag)`` placement columns and a residency probe —
and executes the whole stretch at once: cache hit effects are applied with
their exact cycle-accurate stamps, counters and the cursor advance in bulk,
and the core then merely counts down the stretch's cycles, exposing the
stretch end as its :meth:`next_event` wake so the kernel can jump it in
one fast-forward.  Because a read hit changes no residency, draws no RNG and
needs no bus, the executed events (the boundary bus access, every grant,
every draw) land on exactly the cycles plain stepping produces — batch runs
are bit-identical to stepped runs (enforced by the columnar equivalence
matrix).

Under due-only dispatch (every mode but ``KernelMode.STEPPING``) the core
also **folds** the fixed transitions in front of a bus-bound item into one
event.  Nothing outside an in-order, blocking core can act between the end
of an item's compute gap and its bus request, so the core wakes once per
such item, at the access's final L1 cycle, and :meth:`CoreModel.fast_forward`
replays what it skipped exactly: the compute cycles, the begin-access cycle
(``COMPUTING`` to ``L1_ACCESS``) and the leading L1 cycles (fold 1), and,
after a batched stretch that stopped at a bus-bound item, the load of that
boundary item at the stretch end (fold 2).  A catch-up that stops anywhere
inside that window leaves the state stepping leaves there.

The one observable difference is cosmetic: during a batched stretch, and
during a fold until the core is caught up, :attr:`CoreModel.state` reads
``COMPUTING`` where stepping would read ``L1_ACCESS`` (or alternate the
two); nothing on the platform consumes that distinction (contenders watch
``WAITING_BUS`` only).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from ..bus.bus import SharedBus
from ..bus.transaction import AccessType, BusRequest
from ..cache.l1 import L1Cache
from ..sim.component import Component
from ..sim.config import KernelMode
from ..sim.stats import StatGroup
from .counters import CoreCounters
from .trace import (
    ACCESS_BY_KIND,
    KIND_ATOMIC,
    KIND_NONE,
    KIND_READ,
    KIND_WRITE,
    MaterializedTrace,
)

__all__ = ["CoreState", "CoreModel"]

class CoreState(str, Enum):
    """What the core is doing in the current cycle."""

    COMPUTING = "computing"
    L1_ACCESS = "l1_access"
    WAITING_BUS = "waiting_bus"
    #: A demand access is ready to be issued but the core's single bus port is
    #: occupied by a draining buffered store.
    WAITING_PORT = "waiting_port"
    #: A store is ready but the store buffer is full.
    STORE_STALL = "store_stall"
    FINISHED = "finished"


class CoreModel(Component):
    """An in-order, blocking, trace-driven core.

    Event-queue protocol: the core pushes its wake whenever its state machine
    *transitions* (a trace item loaded, an access begun or finished, a store
    drained, a completion callback) and leaves the heap entry untouched
    across pure countdown ticks — an absolute wake does not move while a
    compute gap, an L1 latency or a batch stretch merely counts down.
    Transition helpers set :attr:`_wake_dirty`; the tick wrapper (and the bus
    callbacks, which run outside the core's own tick) re-derive the wake from
    :meth:`next_event` exactly once per dirty tick, so push sites cannot
    drift from it.

    The wake of a bus-bound item is its access's final L1 cycle: the
    compute end, the begin-access cycle and a batched stretch's end in front
    of it are folded into that one event and replayed by
    :meth:`fast_forward` (see the module docstring).  While a fold lags,
    :attr:`state` reads ``COMPUTING`` where stepping reads ``L1_ACCESS``;
    nothing on the platform reads that difference.
    """

    def __init__(
        self,
        name: str,
        core_id: int,
        trace: MaterializedTrace,
        l1_data: L1Cache,
        bus: SharedBus,
        store_buffer_entries: int = 0,
        mode: KernelMode = KernelMode.PRODUCTION,
    ) -> None:
        """Create the core.

        ``store_buffer_entries`` enables a small write (store) buffer, as real
        LEON3 integer pipelines have: buffered stores drain to the bus in the
        background and the core only stalls when the buffer is full or when a
        demand access needs the (single) bus port while a store is draining.
        The default of 0 keeps the fully blocking behaviour.

        ``mode`` enables the bulk execution of bus-free trace stretches (see
        the module docstring) in ``KernelMode.PRODUCTION``; it is
        bit-identical to per-cycle stepping.
        """
        super().__init__(name)
        if store_buffer_entries < 0:
            raise ValueError("store_buffer_entries cannot be negative")
        self.core_id = core_id
        self.trace = trace
        self.l1_data = l1_data
        self.bus = bus
        self.store_buffer_entries = store_buffer_entries
        self.counters = CoreCounters(core_id=core_id)
        self._state = CoreState.COMPUTING
        self._compute_remaining = 0
        self._l1_remaining = 0
        #: Scalar description of the current item's memory access: an address
        #: plus a kind code (KIND_NONE when the item is pure compute).
        self._pending_address = 0
        self._pending_kind = KIND_NONE
        #: The cursor indexes the trace's (gap, address, kind) columns.
        self._gaps = trace.compute_gaps
        self._addresses = trace.addresses
        self._kinds = trace.kinds
        self._trace_len = len(trace)
        self._cursor = 0
        #: Batch interpreter state: pre-computed per-item placement columns
        #: plus pre-bound cache probe/commit hooks, and the count of cycles
        #: left in the stretch currently being replayed in bulk (0 = not in a
        #: stretch).  ``batched_items``/``batch_stretches`` live in the
        #: :attr:`obs` stat group — outside CoreCounters so result snapshots
        #: stay comparable across batch-on/off runs, and registrable in a
        #: campaign-level metrics registry.
        self._batch = mode is KernelMode.PRODUCTION
        self._batch_remaining = 0
        #: Cycles from the stretch end to the final L1 cycle of its boundary
        #: item when that item is bound for the bus (fold 2), else 0: a
        #: stretch cut by the run horizon or ending the trace ends in a real
        #: transition.  Read only while ``_batch_remaining`` is non-zero.
        self._batch_tail = 0
        self._l1_latency = l1_data.hit_latency
        self.obs = StatGroup(f"{name}.obs")
        self._c_batched_items = self.obs.counter("batched_items")
        self._c_batch_stretches = self.obs.counter("batch_stretches")
        if self._batch:
            self._l1_sets, self._l1_tags = trace.placement_columns(l1_data.placement)
            self._l1_probe, self._l1_commit = l1_data.batch_read_hooks()
            #: Random replacement never reads the access history, so batch
            #: commits may count hits without computing per-hit stamps/ways.
            self._hits_cheap = l1_data.hit_stamps_droppable
            self._count_hits = l1_data.cache.count_read_hits
        self._store_buffer: list[int] = []
        self._store_in_flight = False
        self._deferred_request: BusRequest | None = None
        self._stalled_store: int | None = None
        self._started = False
        self._finishing = False
        #: Set by the state-machine transition helpers; consumed once at the
        #: end of the tick (or completion callback) that caused it, where the
        #: event-queue wake is re-derived from :meth:`next_event`.
        self._wake_dirty = False
        #: Called with +1 when the core enters ``FINISHED`` and with -1 when
        #: a reset takes it out again, so an owner can count finished cores
        #: instead of polling them.
        self.on_finish: Callable[[int], None] | None = None
        #: Called whenever :meth:`request_ready` rises or falls, so its
        #: observers (the WCET-mode contenders) need not poll it.
        self.request_observers: list[Callable[[], None]] = []
        bus.connect_master(core_id, self)

    # ------------------------------------------------------------------
    # Observable state
    # ------------------------------------------------------------------
    @property
    def state(self) -> CoreState:
        return self._state

    @property
    def finished(self) -> bool:
        return self._state is CoreState.FINISHED

    def request_ready(self) -> bool:
        """True while this core has a bus request issued but not completed.

        This is the signal (``REQ1`` for the task under analysis) that the
        WCET-estimation-mode contenders observe, each through this bound
        method; :attr:`request_observers` are called each time it changes.
        """
        return self._state is CoreState.WAITING_BUS

    @property
    def execution_cycles(self) -> int:
        return self.counters.execution_cycles

    @property
    def batched_items(self) -> int:
        """Trace items swallowed by the batch interpreter."""
        return self._c_batched_items.value

    @property
    def batch_stretches(self) -> int:
        """Bus-free stretches executed in bulk by the batch interpreter."""
        return self._c_batch_stretches.value

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------
    def tick(self) -> None:
        self._tick_cycle()
        if self._wake_dirty:
            self._wake_dirty = False
            if self._wake_push:
                self._push_wake(self.now + 1)

    def _tick_cycle(self) -> None:
        if self._state is CoreState.FINISHED:
            return
        if not self._started:
            self.counters.start_cycle = self.now
            self._started = True
            self._advance_trace(first_tick=True)
            if self._state is CoreState.FINISHED:
                return

        if self._batch_remaining:
            # Mid-stretch: all effects were applied at stretch entry; the
            # remaining ticks only count down to the boundary item, which is
            # loaded (cycle-accurately) the moment the count hits zero.
            remaining = self._batch_remaining - 1
            self._batch_remaining = remaining
            if not remaining:
                self._advance_trace()
            return

        self._drain_store_buffer()

        if self._state is CoreState.WAITING_BUS:
            self.counters.bus_wait_cycles += 1
            return

        if self._state is CoreState.WAITING_PORT:
            self.counters.bus_wait_cycles += 1
            return

        if self._state is CoreState.STORE_STALL:
            self.counters.store_stall_cycles += 1
            return

        if self._state is CoreState.COMPUTING:
            if self._compute_remaining > 0:
                self._compute_remaining -= 1
                self.counters.compute_cycles += 1
                return
            # Compute phase over: start the memory access of the current item.
            self._begin_access()
            return

        if self._state is CoreState.L1_ACCESS:
            self._l1_remaining -= 1
            self.counters.l1_cycles += 1
            if self._l1_remaining > 0:
                return
            self._finish_l1_access()

    # ------------------------------------------------------------------
    # Fast-forward support
    # ------------------------------------------------------------------
    def next_event(self, now: int) -> int | None:
        """The core's wake (see :meth:`Component.next_event`).

        The core schedules its own events only while computing or walking the
        L1 pipeline; in every waiting state the event that unblocks it is a
        bus completion, which the bus's own wake covers (``None`` here).
        """
        state = self._state
        if state is CoreState.FINISHED:
            return None
        if not self._started:
            return now
        if self._batch_remaining:
            # The stretch end is the wake: only the tick that loads the
            # boundary item does anything (store buffer is empty mid-stretch).
            # Past a bus-bound boundary item that load is a fixed transition,
            # folded into the item's own wake (fold 2).
            return now + self._batch_remaining - 1 + self._batch_tail
        if (
            self._store_buffer
            and not self._store_in_flight
            and state is not CoreState.WAITING_BUS
            and state is not CoreState.WAITING_PORT
        ):
            return now  # a buffered store drains to the bus this very tick
        if state is CoreState.COMPUTING:
            if self._finishing:
                # Trace exhausted; ticks merely poll until the draining store
                # completes (a bus event), touching no counter meanwhile.
                return None if self._store_in_flight else now
            if self._pending_kind != KIND_NONE:
                # Fold 1: the compute end only begins the access; wake on its
                # final L1 cycle, which probes the L1 and may go to the bus.
                return now + self._compute_remaining + self._l1_latency
            return now + self._compute_remaining
        if state is CoreState.L1_ACCESS:
            # The L1 pipeline only *does* something on its final cycle; the
            # preceding ones are uniform latency accounting.
            return now + self._l1_remaining - 1
        # WAITING_BUS / WAITING_PORT / STORE_STALL: unblocked by the bus.
        return None

    def fast_forward(self, start: int, cycles: int) -> None:
        """Replay ``cycles`` skipped ticks: their uniform accounting and the
        fixed transitions a fold skipped, in stepping's order."""
        remaining = self._batch_remaining
        if remaining:
            # Counters were advanced at stretch entry; skipped ticks would
            # only have counted down.
            if cycles < remaining:
                self._batch_remaining = remaining - cycles
                return
            # Fold 2: the last countdown tick loads the bus-bound boundary
            # item (the load's re-scan would stop at once, as at entry).
            self._batch_remaining = 0
            self._load_item(self._cursor)
            cycles -= remaining
        state = self._state
        counters = self.counters
        if state is CoreState.WAITING_BUS or state is CoreState.WAITING_PORT:
            counters.bus_wait_cycles += cycles
        elif state is CoreState.STORE_STALL:
            counters.store_stall_cycles += cycles
        elif state is CoreState.COMPUTING:
            if not self._finishing and self._started:
                compute = self._compute_remaining
                if cycles <= compute:
                    self._compute_remaining = compute - cycles
                    counters.compute_cycles += cycles
                    return
                # Fold 1: the compute end begins the access (counting
                # nothing), and the L1 cycles follow.
                counters.compute_cycles += compute
                self._compute_remaining = 0
                self._state = CoreState.L1_ACCESS
                l1_cycles = cycles - compute - 1
                self._l1_remaining = self._l1_latency - l1_cycles
                counters.l1_cycles += l1_cycles
        elif state is CoreState.L1_ACCESS:
            self._l1_remaining -= cycles
            counters.l1_cycles += cycles

    # ------------------------------------------------------------------
    # Trace walking
    # ------------------------------------------------------------------
    def _advance_trace(self, first_tick: bool = False) -> None:
        """Fetch the next trace item, or finish the task.

        With the batch interpreter enabled, first try to swallow a whole
        bus-free stretch; the single-item load below then only ever sees
        items that (may) need the bus.
        """
        self._wake_dirty = True
        cursor = self._cursor
        if cursor >= self._trace_len:
            self._finish()
            return
        if self._batch:
            # Cheap viability precheck: writes and atomics always go to the
            # bus, so the scan cannot start there — skip its fixed setup cost
            # entirely on miss/store-bound trace regions.
            kind = self._kinds[cursor]
            if (kind == KIND_READ or kind == KIND_NONE) and self._try_enter_batch(
                first_tick
            ):
                return
        self._load_item(cursor)

    def _load_item(self, cursor: int) -> None:
        """Make the trace item at ``cursor`` the current one."""
        self._cursor = cursor + 1
        self._compute_remaining = self._gaps[cursor]
        self._pending_address = self._addresses[cursor]
        self._pending_kind = self._kinds[cursor]
        self._state = CoreState.COMPUTING

    def _try_enter_batch(self, first_tick: bool) -> bool:
        """Scan the maximal upcoming bus-free stretch and execute it in bulk.

        A stretch is a run of consecutive items that provably never interact
        with the bus: pure-compute items, and reads resident in the L1 (probed
        against the pre-computed placement columns; hits change no residency,
        so earlier hits in the stretch cannot invalidate later probes).  It
        ends at the first write or atomic (mandatory bus), the first read
        miss, or the end of the trace.

        Effects are applied eagerly, exactly as cycle-accurate stepping would
        accumulate them: each hit's replacement touch is stamped with the
        cycle the stepped L1 pipeline would have completed it (one transition
        cycle plus the compute gap plus the hit latency per item), and the
        core counters/cursor advance in bulk.  The core is then left counting
        down ``_batch_remaining`` cycles; the tick in which the count hits
        zero loads the boundary item — the same cycle in which stepping would
        have loaded it.

        A stretch that stops at a read miss, a write or an atomic inside the
        trace records that item's compute gap, begin-access cycle and L1
        latency as :attr:`_batch_tail`, so the wake skips the boundary load.

        ``first_tick`` marks the call from the core's very first tick, which
        (unlike every other call site) executes the first countdown cycle
        within the same tick, so the stamp base shifts back by one cycle.

        Eager effects are bounded by the kernel's :meth:`~repro.sim.kernel.Kernel.run_horizon`
        (fetched lazily, once the first item qualifies): an item is only
        swallowed if its completion tick is guaranteed to execute, so a run
        truncated at its cycle budget reports exactly the partial work the
        stepped run reports — the unswallowed tail re-enters the
        cycle-accurate path and truncates item-by-item like stepping does.
        Outside :meth:`~repro.sim.kernel.Kernel.run` (bare ``kernel.step()``
        driving) there is no horizon at all and batching stays off, keeping
        stepped partial state exact.

        The scan probes one item at a time against the L1's tag store.  The
        L1 is write-through, so every store ends a stretch and stretches on
        the paper's workloads stay short; a vectorised whole-window probe
        measured no faster even on long L1-resident stretches.
        """
        if self._store_buffer or self._store_in_flight:
            return False
        kernel = self.kernel
        gaps = self._gaps
        kinds = self._kinds
        sets = self._l1_sets
        tags = self._l1_tags
        probe = self._l1_probe
        commit = self._l1_commit
        cheap = self._hits_cheap
        latency = self._l1_latency
        read_kind = KIND_READ
        none_kind = KIND_NONE
        base = self.now - 1 if first_tick else self.now
        budget = None
        bounded = False
        cycles = 0
        reads = 0
        tail = 0
        cursor = self._cursor
        end = self._trace_len
        j = cursor
        while j < end:
            kind = kinds[j]
            if kind == read_kind:
                set_index = sets[j]
                way = probe(set_index, tags[j])
                cost = gaps[j] + 1 + latency
                if way is None:
                    tail = cost
                    break
            elif kind == none_kind:
                cost = gaps[j] + 1
            else:  # writes and atomics always go to the bus
                tail = gaps[j] + 1 + latency
                break
            if not bounded:
                horizon = kernel.run_horizon()
                if horizon is None:
                    # No run in progress (the core is being driven by bare
                    # kernel.step() calls): there is no bound on how soon the
                    # caller may inspect partial state, so eager execution is
                    # never safe — stay cycle-accurate.
                    break
                budget = horizon - 1 - base
                bounded = True
            if cycles + cost > budget:
                break
            cycles += cost
            if kind == read_kind:
                if not cheap:
                    commit(set_index, way, base + cycles)
                reads += 1
            j += 1
        if j == cursor:
            return False
        if cheap and reads:
            self._count_hits(reads)
        self._commit_batch(cursor, j, cycles, reads, tail)
        return True

    def _commit_batch(
        self, cursor: int, end: int, cycles: int, reads: int, tail: int
    ) -> None:
        """Advance counters/cursor for a swallowed stretch and start the
        countdown."""
        items = end - cursor
        latency = self._l1_latency
        counters = self.counters
        counters.items_completed += items
        counters.compute_cycles += cycles - items - latency * reads
        counters.l1_cycles += latency * reads
        counters.accesses += reads
        counters.l1_hits += reads
        self._c_batched_items.value += items
        self._c_batch_stretches.value += 1
        trace = self.kernel.trace
        if trace.enabled:
            trace.record(
                self.now,
                self.name,
                "core.stretch",
                core=self.core_id,
                items=items,
                cycles=cycles,
                reads=reads,
            )
        self._cursor = end
        self._batch_remaining = cycles
        self._batch_tail = tail
        self._pending_kind = KIND_NONE
        self._compute_remaining = 0
        self._state = CoreState.COMPUTING

    def _begin_access(self) -> None:
        self._wake_dirty = True
        if self._finishing:
            # Trace already exhausted; we are only waiting for stores to drain.
            if not self._store_buffer and not self._store_in_flight:
                self._finishing = False
                self._finish()
            return
        if self._pending_kind == KIND_NONE:
            # Pure compute item: move straight to the next one.
            self.counters.items_completed += 1
            self._advance_trace()
            return
        self._state = CoreState.L1_ACCESS
        self._l1_remaining = self._l1_latency

    def _finish_l1_access(self) -> None:
        self._wake_dirty = True
        kind = self._pending_kind
        address = self._pending_address
        self.counters.accesses += 1
        if kind == KIND_ATOMIC:
            # Atomic operations always go to the bus (they are indivisible
            # read-modify-write transactions against the shared level).
            outcome_needs_bus = True
        else:
            outcome = self.l1_data.access(address, kind == KIND_WRITE, self.now)
            if outcome.hit:
                self.counters.l1_hits += 1
            outcome_needs_bus = outcome.needs_bus
        if not outcome_needs_bus:
            self.counters.items_completed += 1
            self._pending_kind = KIND_NONE
            self._advance_trace()
            return
        if kind == KIND_WRITE and self.store_buffer_entries > 0:
            if len(self._store_buffer) < self.store_buffer_entries:
                self._accept_buffered_store(address)
            else:
                self._stalled_store = address
                self._state = CoreState.STORE_STALL
            return
        request = BusRequest(
            master_id=self.core_id,
            address=address,
            access=ACCESS_BY_KIND[kind],
            issue_cycle=self.now,
        )
        self.counters.bus_requests += 1
        if self._store_in_flight:
            # The single bus port is busy draining a store; issue the demand
            # access as soon as the store completes.
            self._deferred_request = request
            self._state = CoreState.WAITING_PORT
        else:
            self._raise_request(request)

    def _raise_request(self, request: BusRequest) -> None:
        """Issue a demand access and raise the request line it observes."""
        self._state = CoreState.WAITING_BUS
        self.bus.submit(request)
        for observer in self.request_observers:
            observer()

    def _accept_buffered_store(self, address: int) -> None:
        """Put a store into the write buffer and let the pipeline continue."""
        self._store_buffer.append(address)
        self.counters.buffered_stores += 1
        self.counters.items_completed += 1
        self._pending_kind = KIND_NONE
        self._advance_trace()

    def _drain_store_buffer(self) -> None:
        """Issue the oldest buffered store when the bus port is free."""
        if self._store_in_flight or not self._store_buffer:
            return
        if self._state in (CoreState.WAITING_BUS, CoreState.WAITING_PORT):
            return
        address = self._store_buffer.pop(0)
        request = BusRequest(
            master_id=self.core_id,
            address=address,
            access=AccessType.WRITE,
            issue_cycle=self.now,
        )
        request.annotate(buffered_store=True)
        self.counters.bus_requests += 1
        self._store_in_flight = True
        self._wake_dirty = True
        self.bus.submit(request)

    def _finish(self) -> None:
        if self._store_buffer or self._store_in_flight:
            # The trace is exhausted but stores are still draining; the task
            # is only complete once its memory effects are globally visible.
            self._state = CoreState.COMPUTING
            self._compute_remaining = 0
            self._pending_kind = KIND_NONE
            self._finishing = True
            return
        self._state = CoreState.FINISHED
        self.counters.finish_cycle = self.now
        if self.on_finish is not None:
            self.on_finish(1)
        trace = self.kernel.trace
        if trace.enabled:
            trace.record(
                self.now,
                self.name,
                "core.finish",
                core=self.core_id,
                items=self.counters.items_completed,
            )

    # ------------------------------------------------------------------
    # Bus master port protocol
    # ------------------------------------------------------------------
    def on_complete(self, request: BusRequest, cycle: int) -> None:
        """The bus transaction finished; resume the trace next cycle."""
        if request.annotations.get("buffered_store"):
            self._complete_buffered_store(request)
            return
        if request.duration is not None:
            self.counters.bus_hold_cycles += request.duration
            # The cycles the bus was held were accounted as wait cycles by the
            # per-cycle loop (the core is in WAITING_BUS while the transaction
            # is in flight); reclassify them as hold cycles.
            self.counters.bus_wait_cycles -= request.duration
        self.counters.request_latencies.append(request.total_latency)
        self.counters.items_completed += 1
        self._pending_kind = KIND_NONE
        self._advance_trace()
        for observer in self.request_observers:
            observer()  # the request line fell
        # This callback runs inside the *bus's* tick, outside the core's own
        # tick and its wake flush — flush here.
        if self._wake_dirty:
            self._wake_dirty = False
            if self._wake_push:
                self._push_wake(self.now + 1)

    def _complete_buffered_store(self, request: BusRequest) -> None:
        """A background store drained; free the port and unblock stalls."""
        self._store_in_flight = False
        # Every branch below can change the wake (another buffered store may
        # drain next tick, a finishing core resumes polling, a deferred
        # request goes out): re-derive it unconditionally at the end.
        self._wake_dirty = True
        if request.duration is not None:
            self.counters.bus_hold_cycles += request.duration
        self.counters.request_latencies.append(request.total_latency)
        if self._state is CoreState.STORE_STALL and self._stalled_store is not None:
            address = self._stalled_store
            self._stalled_store = None
            self._accept_buffered_store(address)
        elif self._state is CoreState.WAITING_PORT and self._deferred_request is not None:
            deferred = self._deferred_request
            self._deferred_request = None
            self._raise_request(deferred)
        if self._wake_dirty:
            self._wake_dirty = False
            if self._wake_push:
                self._push_wake(self.now + 1)

    def reset(self) -> None:
        if self._state is CoreState.FINISHED and self.on_finish is not None:
            self.on_finish(-1)
        self.counters = CoreCounters(core_id=self.core_id)
        self.l1_data.reset()
        self._state = CoreState.COMPUTING
        self._compute_remaining = 0
        self._l1_remaining = 0
        self._pending_address = 0
        self._pending_kind = KIND_NONE
        self._cursor = 0
        self._batch_remaining = 0
        self._batch_tail = 0
        self.obs.reset()
        self._store_buffer = []
        self._store_in_flight = False
        self._deferred_request = None
        self._stalled_store = None
        self._finishing = False
        self._started = False
        self._wake_dirty = False
