"""The shared non-split bus.

:class:`SharedBus` models the AMBA AHB-style bus of the paper's platform:

* one outstanding request per master (the cores are in-order and blocking);
* non-split transactions — the granted master holds the bus for the whole
  turnaround of its request (L2 access, and memory access(es) on a miss);
* single-cycle arbitration — when the bus is idle, the arbiter picks among
  the masters with a pending request and the winner starts in that cycle.

The bus drives the arbiter through the hooks defined by
:class:`repro.arbiters.Arbiter`, which is also how the credit-based
arbitration of the paper plugs in (it *is* an arbiter wrapping another one).

All bus work happens at state transitions — a submit, the admission of a
posted request, a grant, a release.  Between a grant and its release a tick
only counts an occupied cycle, which :meth:`SharedBus.fast_forward` replays
in bulk.  The sorted requestor list changes at submit, admission and grant,
and the holder changes are appended to :attr:`SharedBus.holder_log`, from
which the :class:`~repro.bus.monitor.BusMonitor` derives its windows when
read.

A master that re-issues the cycle after each completion (the greedy
contender) may :meth:`~SharedBus.post` its next request from the completion
callback instead of waking for it.  The bus *admits* a posted request — the
same state change as a submit, stamped with the request's issue cycle —
before anything can observe it: at the start of its tick for issue cycles up
to the current one, in a catch-up over the cycles it replays, and in a
submit for issue cycles before the submit's (or in its cycle, when the
poster ticks before the submitter, which is stepping's order).
"""

from __future__ import annotations

from array import array
from bisect import insort
from typing import TYPE_CHECKING, Callable

from ..arbiters.base import Arbiter
from ..sim.component import Component
from ..sim.errors import ProtocolError
from ..sim.stats import StatGroup
from ..sim.trace import NullTraceRecorder, TraceRecorder
from .ports import BusMasterPort, BusSlavePort
from .transaction import BusRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance for type hints
    from ..sim.kernel import Kernel

__all__ = ["SharedBus"]


class SharedBus(Component):
    """Cycle-accurate model of a non-split shared bus.

    Event-queue protocol: the bus pushes its wake at the end of every tick —
    the release cycle while a transaction holds the bus; while idle, the
    earlier of the arbiter's next grant opportunity for the pending requests
    (TDMA slot boundaries, CBA credit-replenish targets) and the first
    posted request's issue cycle; nothing while idle and empty (only a
    master's submission — an executed tick by construction — can change
    anything).  A held bus needs no wake for a posted request: nothing can
    grant it before the release, so admitting it then is not observable.
    The bus caches the pushed wake, so re-asserting an unchanged one costs a
    comparison, not a call into the queue.
    """

    def __init__(
        self,
        name: str,
        num_masters: int,
        arbiter: Arbiter,
        slave: BusSlavePort,
        max_latency: int = 56,
    ) -> None:
        """Create the bus.

        Parameters
        ----------
        num_masters:
            Number of master ports (one per core).
        arbiter:
            The arbitration policy (possibly wrapped by CBA).
        slave:
            The slave side (L2 + memory controller) that resolves transaction
            durations.
        max_latency:
            Upper bound on any transaction duration (the paper's ``MaxL``);
            the bus enforces that the slave never exceeds it.
        """
        super().__init__(name)
        if arbiter.num_masters != num_masters:
            raise ProtocolError(
                f"arbiter handles {arbiter.num_masters} masters, bus has {num_masters}"
            )
        if max_latency <= 0:
            raise ProtocolError("max_latency must be positive")
        self.num_masters = num_masters
        self.arbiter = arbiter
        self.slave = slave
        self.max_latency = max_latency
        self._masters: list[BusMasterPort | None] = [None] * num_masters
        #: Each master's ``on_grant`` (``None`` when it has none: the bus
        #: then neither touches nor calls it at grant).
        self._grant_hooks: list[Callable[[BusRequest, int], None] | None] = [None] * num_masters
        #: Whether a completion touches each master before its
        #: ``on_complete`` (``None`` until its first completion, once every
        #: component has its slot; see :meth:`_touches_at_completion`).
        self._complete_touches: list[bool | None] = [None] * num_masters
        self._pending: list[BusRequest | None] = [None] * num_masters
        #: Masters with a pending request, sorted; updated at submit,
        #: admission and grant.
        self._requestors: list[int] = []
        #: Posted requests not yet admitted, in issue order (one completion
        #: per cycle posts at most one, so issue cycles strictly increase).
        self._posted: list[BusRequest] = []
        self._holder: int | None = None
        self._active_request: BusRequest | None = None
        self._release_cycle = 0
        #: Wake currently pushed into the kernel's event queue (``None`` when
        #: nothing is scheduled).  Caching it locally keeps the steady state
        #: — re-asserting the same release cycle every tick of a long
        #: transaction — a single comparison instead of a call into the
        #: kernel's dedup.
        self._wake_target: int | None = None
        #: Holder changes as a flat ``cycle, holder`` sequence (holder -1
        #: for an idle bus): the holder from each cycle on.  A release and a
        #: grant in the same cycle collapse into one entry.
        self.holder_log = array("q")
        self._trace: TraceRecorder = NullTraceRecorder()
        self.stats = StatGroup(name=f"{name}.stats")
        # The per-cycle and per-transaction paths below run millions of times
        # per campaign; bind the counters/histograms once instead of paying a
        # string-keyed dict lookup (and f-string formatting for the per-master
        # families) on every access.
        stats = self.stats
        self._c_submitted = stats.counter("requests_submitted")
        self._c_completed = stats.counter("requests_completed")
        self._c_grants = stats.counter("grants")
        self._c_cycles_total = stats.counter("cycles_total")
        self._c_cycles_busy = stats.counter("cycles_busy")
        self._c_cycles_idle_pending = stats.counter("cycles_idle_with_pending")
        self._c_cycles_idle = stats.counter("cycles_idle")
        self._c_grants_master = [
            stats.counter(f"grants_master_{m}") for m in range(num_masters)
        ]
        self._c_cycles_master = [
            stats.counter(f"cycles_master_{m}") for m in range(num_masters)
        ]
        self._sample_total_latency = stats.histogram("total_latency").sampler()
        self._sample_wait_cycles = stats.histogram("wait_cycles").sampler()
        self._sample_grant_duration = stats.histogram("grant_duration").sampler()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, kernel: "Kernel") -> None:
        super().bind(kernel)
        # Read on every submit, grant and completion.
        self._trace = kernel.trace

    def connect_master(self, master_id: int, port: BusMasterPort) -> None:
        """Attach the master port for ``master_id`` (called by the platform builder)."""
        if not 0 <= master_id < self.num_masters:
            raise ProtocolError(f"master id {master_id} out of range")
        self._masters[master_id] = port
        self._grant_hooks[master_id] = getattr(port, "on_grant", None)
        self._complete_touches[master_id] = None

    def disconnect_masters(self) -> None:
        """Detach every master port, so no bus-to-master edge outlives the
        platform (called when it is closed)."""
        self._masters = [None] * self.num_masters
        self._grant_hooks = [None] * self.num_masters
        self._complete_touches = [None] * self.num_masters

    # ------------------------------------------------------------------
    # Master-side API
    # ------------------------------------------------------------------
    def submit(self, request: BusRequest) -> None:
        """Assert the request line of ``request.master_id``.

        Masters are blocking: submitting while a previous request from the
        same master is still pending or in flight is a protocol violation.
        """
        master = request.master_id
        self._check_outstanding(master)
        now = self.now
        if self._holder is not None and self._release_cycle > now:
            # The bus is held past this cycle, so its tick now could only
            # count an occupied cycle: catch it up, but leave it asleep.
            self._sync(self)
        else:
            # Account the bus's lagging cycles with the old pending set, and
            # make it due now so it can arbitrate in this very cycle.
            self._touch(self)
        posted = self._posted
        if posted and posted[0].issue_cycle <= now:
            # Requests posted for earlier cycles were asserted before this
            # one; one posted for this cycle was too if its master ticks
            # first.
            self._admit_posted(now)
            if (
                posted
                and posted[0].issue_cycle == now
                and self._slot_of(posted[0].master_id) < self._slot_of(master)
            ):
                self._admit_posted(now + 1)
        self._admit(request, now)

    def post(self, request: BusRequest) -> None:
        """Assert ``request`` from its ``issue_cycle`` on, without the master
        waking for it.

        For a master that re-issues in the cycle after a completion: it
        calls this from its ``on_complete`` (inside the bus's tick), with
        ``issue_cycle`` set to that next cycle, and the bus admits the
        request exactly as the master's submit in that cycle would have.
        The master must tick before the bus, as every master submitting to
        it must under due-only dispatch (the platform registers the bus
        last).  Under ``KernelMode.STEPPING`` masters submit instead.
        """
        self._check_outstanding(request.master_id)
        self._posted.append(request)

    def _check_outstanding(self, master: int) -> None:
        if not 0 <= master < self.num_masters:
            raise ProtocolError(f"request from unknown master {master}")
        if self._pending[master] is not None or self._holder == master:
            raise ProtocolError(f"master {master} already has an outstanding bus request")

    def _slot_of(self, master: int) -> int:
        """The kernel slot of ``master``'s port: the order it ticks in."""
        return getattr(self._masters[master], "_wake_slot", -1)

    def _admit(self, request: BusRequest, cycle: int) -> None:
        """Make ``request`` pending, as its master's submit at ``cycle``."""
        master = request.master_id
        self._pending[master] = request
        insort(self._requestors, master)
        self.arbiter.on_request(master, request.issue_cycle)
        self._c_submitted.value += 1
        trace = self._trace
        if trace.enabled:
            trace.record(
                cycle,
                self.name,
                "bus.request",
                master=master,
                request_id=request.request_id,
                pending=len(self._requestors),
            )

    def _admit_posted(self, before: int) -> None:
        """Admit the posted requests issued before cycle ``before``."""
        posted = self._posted
        while posted and posted[0].issue_cycle < before:
            request = posted.pop(0)
            self._admit(request, request.issue_cycle)

    def has_pending(self, master_id: int) -> bool:
        """True when ``master_id`` has a request waiting for the bus."""
        return self._pending[master_id] is not None

    @property
    def busy(self) -> bool:
        """True while a transaction holds the bus."""
        return self._holder is not None

    @property
    def holder(self) -> int | None:
        """Master currently holding the bus, or ``None``."""
        return self._holder

    @property
    def pending_masters(self) -> list[int]:
        """Masters with a request waiting to be granted."""
        return list(self._requestors)

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------
    def tick(self) -> None:
        cycle = self._clock._cycle
        posted = self._posted
        if posted and posted[0].issue_cycle <= cycle:
            self._admit_posted(cycle + 1)
        if self._holder is not None and cycle >= self._release_cycle:
            self._complete(cycle)
        if self._holder is None and self._requestors:
            self._arbitrate_and_grant(cycle)
        self._c_cycles_total.value += 1
        if self._holder is not None:
            self._c_cycles_busy.value += 1
        elif self._requestors:
            # Idle although someone wants the bus: either the arbiter withheld
            # the grant (TDMA outside a slot, CBA budget not replenished) or
            # no eligible requestor existed this cycle.
            self._c_cycles_idle_pending.value += 1
        else:
            self._c_cycles_idle.value += 1
        if self._wake_push:
            # After the whole cycle's bus activity is in: push the wake
            # next_event gives for cycle + 1.  The steady states — holding
            # with the release cycle already pushed, idle-empty with
            # nothing pushed — cost a comparison.
            if self._holder is not None:
                wake = self._release_cycle
            elif self._requestors or posted:
                wake = self.next_event(cycle + 1)
            else:
                wake = None
            if wake != self._wake_target:
                self._wake_target = wake
                if wake is None:
                    self._wake_cancel(self._wake_slot)
                else:
                    self._wake_schedule(self._wake_slot, wake)

    def _complete(self, cycle: int) -> None:
        request = self._active_request
        holder = self._holder
        if request is None or holder is None:  # pragma: no cover - set together at grant
            raise ProtocolError("bus holder without an active request")
        self.holder_log.extend((cycle, -1))
        request.complete_cycle = cycle
        self._holder = None
        self._active_request = None
        self._c_completed.value += 1
        issue = request.issue_cycle
        wait = request.grant_cycle - issue
        self._sample_total_latency(cycle - issue)
        self._sample_wait_cycles(wait)
        trace = self._trace
        if trace.enabled:
            trace.record(
                cycle,
                self.name,
                "bus.complete",
                master=holder,
                request_id=request.request_id,
                duration=request.duration,
                wait=wait,
            )
        port = self._masters[holder]
        if port is not None:
            touches = self._complete_touches[holder]
            if touches is None:
                touches = self._complete_touches[holder] = self._touches_at_completion(port)
            if touches:
                self._touch(port)
            port.on_complete(request, cycle)

    def _touches_at_completion(self, port: BusMasterPort) -> bool:
        """Whether a completion must touch ``port`` before calling it.

        A master in an earlier slot than the bus has had its turn this
        cycle; without a catch-up hook it has no lagging cycles to account,
        so touching it would only move its synced mark (the greedy
        contender).  Every other master is touched.
        """
        catch_up = getattr(type(port), "fast_forward", Component.fast_forward)
        return (
            catch_up is not Component.fast_forward
            or getattr(port, "_wake_slot", -1) > self._wake_slot
        )

    def _arbitrate_and_grant(self, cycle: int) -> None:
        choice = self.arbiter.arbitrate(self._requestors, cycle)
        if choice is None:
            return
        request = self._pending[choice]
        if request is None:  # pragma: no cover - guarded by arbiter validation
            raise ProtocolError(f"arbiter granted master {choice} with no pending request")
        duration = self.slave.resolve(request, cycle)
        if not 1 <= duration <= self.max_latency:
            raise ProtocolError(
                f"slave returned duration {duration} outside [1, {self.max_latency}]"
            )
        request.grant_cycle = cycle
        request.duration = duration
        self._pending[choice] = None
        self._requestors.remove(choice)
        log = self.holder_log
        if log and log[-2] == cycle:
            # Released in this very cycle: the grant replaces the idle entry.
            log[-1] = choice
        else:
            log.extend((cycle, choice))
        self._holder = choice
        self._active_request = request
        self._release_cycle = cycle + duration
        self.arbiter.on_grant(choice, duration, cycle)
        self._c_grants.value += 1
        self._c_grants_master[choice].value += 1
        self._c_cycles_master[choice].value += duration
        self._sample_grant_duration(duration)
        trace = self._trace
        if trace.enabled:
            trace.record(
                cycle,
                self.name,
                "bus.grant",
                master=choice,
                request_id=request.request_id,
                duration=duration,
            )
        on_grant = self._grant_hooks[choice]
        if on_grant is not None:
            self._touch(self._masters[choice])
            on_grant(request, cycle)

    # ------------------------------------------------------------------
    # Fast-forward support
    # ------------------------------------------------------------------
    def next_event(self, now: int) -> int | None:
        """Wake: completion of the transaction in flight, or the earlier of
        the arbiter's next chance to grant a waiting request and the first
        posted request's admission.

        While a transaction holds the (non-split) bus nothing can happen
        until its release cycle; while idle with pending requests the arbiter
        bounds the next grant (TDMA slot boundaries, CBA budget refills), and
        a posted request is admitted at its issue cycle, so no skipped idle
        stretch spans an admission; while idle and empty only a master's
        submission — a core-side event covered by the cores' own hints — can
        change anything.
        """
        if self._holder is not None:
            return self._release_cycle
        wake = None
        if self._requestors:
            wake = self.arbiter.next_grant_opportunity(self._requestors, now)
        if self._posted:
            issue = self._posted[0].issue_cycle
            if wake is None or issue < wake:
                wake = issue
        return wake

    def fast_forward(self, start: int, cycles: int) -> None:
        """Bulk-account ``cycles`` skipped cycles of constant bus state."""
        if self._posted:
            # Only a held bus skips a posted request's issue cycle.
            self._admit_posted(start + cycles)
        self._c_cycles_total.value += cycles
        if self._holder is not None:
            self._c_cycles_busy.value += cycles
        elif self._requestors:
            self._c_cycles_idle_pending.value += cycles
            # The only skipped cycles an arbiter accounts: its declined
            # arbitrations (budget-blocked CBA requestors).
            self.arbiter.advance_cycles(start, cycles, None, self._requestors)
        else:
            self._c_cycles_idle.value += cycles

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of cycles the bus was held by some master."""
        total = self.stats.counter("cycles_total").value
        if not total:
            return 0.0
        return self.stats.counter("cycles_busy").value / total

    def _check_master(self, master_id: int) -> None:
        if not 0 <= master_id < self.num_masters:
            raise ProtocolError(f"unknown master {master_id}")

    def cycles_granted(self, master_id: int) -> int:
        """Total bus-hold cycles granted to ``master_id`` so far."""
        self._check_master(master_id)
        return self._c_cycles_master[master_id].value

    def grants(self, master_id: int) -> int:
        """Total number of grants given to ``master_id`` so far."""
        self._check_master(master_id)
        return self._c_grants_master[master_id].value

    def bandwidth_shares(self) -> list[float]:
        """Per-master share of all granted bus cycles (sums to 1 when any)."""
        cycles = [self.cycles_granted(m) for m in range(self.num_masters)]
        total = sum(cycles)
        if not total:
            return [0.0] * self.num_masters
        return [c / total for c in cycles]

    def reset(self) -> None:
        self._pending = [None] * self.num_masters
        self._requestors = []
        self._posted = []
        self.holder_log = array("q")
        self._holder = None
        self._active_request = None
        self._release_cycle = 0
        self._wake_target = None
        self.stats.reset()
        self.arbiter.reset()
