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

    Event-queue protocol: the contender ticks once, at its first wake, to
    issue its first request, and then has no wake.  Each completion hands
    the bus the next request, stamped with the following cycle, through
    :meth:`~repro.bus.bus.SharedBus.post`; the bus admits it exactly as this
    contender's submit in that cycle would have.  Under
    ``KernelMode.STEPPING`` the contender instead issues from its tick on
    the cycle after each completion.
    """

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
        bus.connect_master(core_id, self)

    def tick(self) -> None:
        if self._in_flight:
            return
        self.bus.submit(self._next_request(self.now))
        if self._wake_push:
            self._push_wake(self.now + 1)

    def next_event(self, now: int) -> int | None:
        """Issue at once while no request is outstanding; otherwise nothing
        until the completion, which issues the next one."""
        return None if self._in_flight else now

    def _next_request(self, cycle: int) -> BusRequest:
        request = BusRequest(
            master_id=self.core_id,
            # Distinct addresses defeat any caching in the slave: every
            # contender request walks the full memory path.
            address=self.address + self.requests_issued * 4096,
            access=AccessType.ATOMIC,
            issue_cycle=cycle,
        )
        self.requests_issued += 1
        self._in_flight = True
        return request

    def on_complete(self, request: BusRequest, cycle: int) -> None:
        self.requests_completed += 1
        # The bus completes during its own tick at ``cycle``; the contender's
        # next chance to issue is cycle + 1.
        if self._wake_push:
            self.bus.post(self._next_request(cycle + 1))
        else:
            self._in_flight = False

    def reset(self) -> None:
        self.requests_issued = 0
        self.requests_completed = 0
        self._in_flight = False


class WCETModeContender(Component):
    """The WCET-estimation-mode contender of Table I.

    Event-queue protocol: the contender's tick does something only at the
    cycle its COMP bit sets (budget full while the task under analysis has a
    request ready) and at the cycle it issues (COMP set and its port free).
    It re-derives its wake from :meth:`next_event` after every tick, grant
    and completion.  The one input it does not own, the task under
    analysis's request line, reaches it through :meth:`on_tua_line`: each
    time the line rises the contender is woken at the first cycle stepping
    lets it see the request (:meth:`~repro.sim.kernel.Kernel.wake`), and
    each time it falls the contender drops the refill wake it no longer
    needs.

    Parameters
    ----------
    tua_request_ready:
        Callable returning whether the task under analysis currently has a
        request ready (``REQ1``).  Whoever switches that line must call
        :meth:`on_tua_line` (the platform binds the task under analysis's
        ``CoreModel.request_ready`` here and registers :meth:`on_tua_line`
        as that core's request observer).
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
        now = self.now
        self.gate.update(
            budget_full=self._budget_full(now),
            tua_request_ready=bool(self.tua_request_ready()),
        )
        if self.gate.compete and not (
            self._in_flight or self._bus_has_pending(self.core_id)
        ):
            self._issue()
        if self._wake_push:
            self._push_wake(now + 1)

    def next_event(self, now: int) -> int | None:
        """The first cycle from ``now`` at which a tick sets COMP or issues.

        * COMP set — issue at ``now`` if the port is free; otherwise nothing
          until the completion (which re-derives the wake);
        * TuA not requesting — COMP cannot set until the line rises, which
          wakes the contender (:meth:`on_tua_line`);
        * otherwise COMP sets at the first cycle the budget is full: ``now``
          or the contender's ``eligible_from``, which only its own grant
          moves.
        """
        gate = self.gate
        if gate.compete or gate.mode is OperatingMode.OPERATION:
            if self._in_flight or self._bus_has_pending(self.core_id):
                return None
            return now
        if not self.tua_request_ready():
            return None
        if self._budget_full(now):
            return now
        return self.cba.credits.eligible_from[self.core_id]

    def on_tua_line(self) -> None:
        """The task under analysis's request line rose or fell."""
        kernel = self._kernel
        if kernel is None:
            return
        if self.tua_request_ready():
            kernel.wake(self)
        elif self._wake_push:
            self._push_wake(self.now + 1)

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
        if self._wake_push:
            self._push_wake(cycle + 1)

    def on_complete(self, request: BusRequest, cycle: int) -> None:
        self.requests_completed += 1
        self._in_flight = False
        if self._wake_push:
            self._push_wake(cycle + 1)

    def reset(self) -> None:
        self.gate.reset()
        self.requests_issued = 0
        self.requests_completed = 0
        self._in_flight = False
