"""Contender agents for contention scenarios.

The paper evaluates the task under analysis (TuA) both in isolation and under
*maximum contention*.  Maximum contention is produced by contender cores that
always have a request ready and whose requests take the maximum latency
``MaxL`` (Section III-B).  Two flavours exist:

* :class:`GreedyContender` — operation-mode worst neighbour: it keeps one
  maximum-length request pending at all times.  Used for the ``*-CON``
  configurations of Figure 1.
* :class:`WCETModeContender` — the analysis-mode contender of Table I: its
  request line is always asserted, but it only *competes* when its budget is
  full **and** the TuA has a request ready; once granted it holds the bus for
  ``MaxL`` cycles.  Used by the MBPTA experiment, where measurements must
  upper-bound operation-time contention without wasting contender budget when
  the TuA is not even requesting.

Both are bus masters in their own right (they bypass the cache hierarchy and
issue atomic, maximum-length transactions straight at the bus), which mirrors
how the FPGA implementation generates analysis-mode traffic in hardware
rather than running a real program on the contender cores.
"""

from __future__ import annotations

from typing import Callable

from ..bus.bus import SharedBus
from ..bus.transaction import AccessType, BusRequest
from ..core.cba import CreditBasedArbiter
from ..core.wcet_mode import CompeteGate, OperatingMode
from ..sim.component import Component

__all__ = ["GreedyContender", "WCETModeContender"]


class GreedyContender(Component):
    """A contender that always keeps one maximum-length request pending.

    Event-queue protocol: the contender's only self-scheduled event is the
    re-issue after a completion, so it cancels its wake when a request goes
    out and schedules the next cycle when the completion callback arrives.
    """

    event_driven = True

    def __init__(
        self,
        name: str,
        core_id: int,
        bus: SharedBus,
        address: int = 0x6000_0000,
    ) -> None:
        super().__init__(name)
        self.core_id = core_id
        self.bus = bus
        self.address = address
        self.requests_issued = 0
        self.requests_completed = 0
        self._in_flight = False
        # Probed once per tick and once per wake hint; pre-binding spares the
        # method lookups on the hot path (same idiom as the bus counters).
        self._bus_has_pending = bus.has_pending
        bus.connect_master(core_id, self)

    def tick(self) -> None:
        if self._in_flight or self._bus_has_pending(self.core_id):
            return
        self._issue()

    def next_event(self, now: int) -> int | None:
        """Issue as soon as the previous request completes (a bus event)."""
        if self._in_flight or self._bus_has_pending(self.core_id):
            return None
        return now

    def _issue(self) -> None:
        request = BusRequest(
            master_id=self.core_id,
            # Distinct addresses defeat any caching in the slave: every
            # contender request walks the full memory path.
            address=self.address + self.requests_issued * 4096,
            access=AccessType.ATOMIC,
            issue_cycle=self.now,
        )
        self.bus.submit(request)
        self.requests_issued += 1
        self._in_flight = True
        # Nothing self-scheduled until the completion callback (a bus event).
        if self._wake_push:
            self._wake_cancel(self._wake_slot)

    def on_complete(self, request: BusRequest, cycle: int) -> None:
        self.requests_completed += 1
        self._in_flight = False
        # Re-issue on the next tick (the bus completes during its own tick
        # at ``cycle``; the contender's next chance to act is cycle + 1).
        if self._wake_push:
            self._wake_schedule(self._wake_slot, cycle + 1)

    def reset(self) -> None:
        self.requests_issued = 0
        self.requests_completed = 0
        self._in_flight = False


class WCETModeContender(Component):
    """The WCET-estimation-mode contender of Table I.

    This contender stays on the kernel's *poll* fallback (``event_driven``
    remains False) on purpose: its wake hint reads state it does not own —
    the task under analysis's request line and its own CBA budget, both of
    which can change during *other* components' ticks (the bus completing
    the TuA's transaction, a deferred TuA request going out) after this
    contender already ticked in the same cycle.  A pushed wake computed at
    its own tick could therefore be *later* than the true one, which the
    event-queue contract forbids; polling re-evaluates the cross-component
    condition at every scheduling decision, exactly like the scan kernel.

    Parameters
    ----------
    tua_request_ready:
        Callable returning whether the task under analysis currently has a
        request ready (``REQ1``).
    cba:
        The CBA arbiter, when present, so the contender can observe its own
        budget (``BUDGi == full``).  Without CBA the budget condition is
        trivially true and the contender competes whenever the TuA requests.
    """

    def __init__(
        self,
        name: str,
        core_id: int,
        bus: SharedBus,
        tua_request_ready: Callable[[], bool],
        cba: CreditBasedArbiter | None = None,
        address: int = 0x7000_0000,
    ) -> None:
        super().__init__(name)
        self.core_id = core_id
        self.bus = bus
        self.tua_request_ready = tua_request_ready
        self.cba = cba
        self.address = address
        self.gate = CompeteGate(mode=OperatingMode.WCET_ESTIMATION, compete=False)
        self.requests_issued = 0
        self.requests_completed = 0
        self._in_flight = False
        self._bus_has_pending = bus.has_pending
        bus.connect_master(core_id, self)

    def _budget_full(self, cycle: int) -> bool:
        if self.cba is None:
            return True
        return self.cba.credits.eligible(self.core_id, cycle)

    def tick(self) -> None:
        self.gate.update(
            budget_full=self._budget_full(self.now),
            tua_request_ready=bool(self.tua_request_ready()),
        )
        if self._in_flight or self._bus_has_pending(self.core_id):
            return
        if self.gate.compete:
            self._issue()

    def next_event(self, now: int) -> int | None:
        """Wake hint honouring the COMP-bit dynamics of Table I.

        The gate's inputs are frozen during a skip except the contender's own
        budget, which replenishes monotonically while it is not holding the
        bus.  The only self-scheduled event is therefore the cycle the budget
        refills while the TuA is requesting, which would set COMP and trigger
        an issue.  All other transitions ride on bus/TuA events:

        * request in flight — COMP cannot *gain* observable effect until the
          completion (and while holding, the draining budget keeps the gate
          shut); the bus hint covers the completion cycle;
        * COMP already set and free to issue — issue this very tick;
        * TuA not requesting — the gate cannot open until the TuA's state
          changes, which is a ticked cycle by construction.
        """
        if self._in_flight or self._bus_has_pending(self.core_id):
            return None
        if self.gate.compete or self.gate.mode is OperatingMode.OPERATION:
            return now
        if not self.tua_request_ready():
            return None
        if self._budget_full(now):
            return now
        return self.cba.credits.eligible_from[self.core_id]

    def _issue(self) -> None:
        request = BusRequest(
            master_id=self.core_id,
            address=self.address + self.requests_issued * 4096,
            access=AccessType.ATOMIC,
            issue_cycle=self.now,
        )
        self.bus.submit(request)
        self.requests_issued += 1
        self._in_flight = True

    def on_grant(self, request: BusRequest, cycle: int) -> None:
        """Bus master protocol: the grant clears the compete bit (Table I)."""
        self.gate.on_granted()

    def on_complete(self, request: BusRequest, cycle: int) -> None:
        self.requests_completed += 1
        self._in_flight = False

    def reset(self) -> None:
        self.gate.reset()
        self.requests_issued = 0
        self.requests_completed = 0
        self._in_flight = False
