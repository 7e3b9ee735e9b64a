"""Credit-Based Arbitration (CBA) — the paper's primary contribution.

CBA is not an arbitration policy on its own: it is a *filter* placed in front
of any slot-fair policy (Section III-A).  Every cycle each core's budget is
replenished; only cores with a full budget are eligible for arbitration; and
the core holding the bus pays one cycle of budget for every cycle of
occupancy.  Because long transactions drain proportionally more budget, cores
issuing short requests are granted more often and the bus bandwidth converges
to a fair share in *cycles*, not in *slots*.

:class:`CreditBasedArbiter` implements this as a wrapper conforming to the
standard :class:`~repro.arbiters.base.Arbiter` interface, so the bus does not
need to know whether CBA is present — exactly like the hardware integration
in the paper, where CBA is a small addition to the existing AMBA arbiter.

The per-cycle budget update of Equation 1 is applied lazily: the
:class:`~repro.core.credit.CreditBank` re-anchors a core only when it is
granted (settling the whole drain of the transaction at once), and every
other read is a closed form of the cycle asked about.  The arbiter therefore
does no work between a grant and its release; the filter compares the cycle
with each requestor's ``eligible_from``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

from ..arbiters.base import Arbiter
from ..sim.config import CBAParameters
from ..sim.errors import ArbitrationError
from ..sim.trace import TraceRecorder
from .credit import CreditBank

__all__ = ["CreditBasedArbiter"]


class CreditBasedArbiter(Arbiter):
    """Budget filter wrapped around a base arbitration policy."""

    policy_name = "cba"

    def __init__(self, base: Arbiter, params: CBAParameters) -> None:
        """Create the CBA wrapper.

        Parameters
        ----------
        base:
            The underlying slot-fair policy used among eligible cores (the
            paper integrates CBA with random permutations on the FPGA).
        params:
            Budget parameters (``MaxL``, core count, optional heterogeneous
            shares/caps, initial budgets).
        """
        if base.num_masters != params.num_cores:
            raise ArbitrationError(
                f"base arbiter handles {base.num_masters} masters, "
                f"CBA parameters describe {params.num_cores} cores"
            )
        super().__init__(base.num_masters)
        self.base = base
        self.params = params
        self.credits = CreditBank(params)
        #: Count of cycles in which at least one request was pending but every
        #: pending requestor was budget-blocked (bus left idle by CBA).
        self.blocked_cycles = 0
        #: Optional timeline recorder (attached by the platform when timeline
        #: observability is on).  ``None`` keeps every trace branch dead, so
        #: the default path pays nothing beyond one attribute load.
        self._trace: TraceRecorder | None = None
        #: Refill tracing state: the eligible set last recorded, the cycle
        #: the ``cba.refill`` events are recorded up to, and a heap of the
        #: cycles at which the eligible set may change next.
        self._traced_eligible: list[int] = []
        self._traced_through = 0
        self._refill_points: list[int] = []

    def attach_trace(self, recorder: TraceRecorder, cycle: int = 0) -> None:
        """Record CBA credit dynamics (drains, refills, blocks) on ``recorder``
        from ``cycle`` on."""
        self._trace = recorder
        self._traced_eligible = self.credits.eligible_cores(cycle)
        self._traced_through = cycle
        self._refill_points = []
        for core in range(len(self.credits)):
            self._push_refill_points(core)

    # ------------------------------------------------------------------
    # Arbiter interface
    # ------------------------------------------------------------------
    def arbitrate(self, requestors: Sequence[int], cycle: int) -> int | None:
        pending = self._validate_requestors(requestors)
        if not pending:
            return None
        trace = self._trace
        if trace is not None and trace.enabled:
            self.sync_trace(cycle)
        # A requestor never holds the bus, so its budget is full exactly from
        # its eligible_from on.
        eligible_from = self.credits.eligible_from
        eligible = [master for master in pending if eligible_from[master] <= cycle]
        if not eligible:
            self.blocked_cycles += 1
            if trace is not None and trace.enabled:
                trace.record(cycle, "cba", "cba.blocked", pending=list(pending))
            return None
        # ``eligible`` is a subset of the validated requestors.
        choice = self.base._arbitrate_valid(eligible, cycle)
        return self._validate_choice(choice, eligible)

    def on_grant(self, master_id: int, duration: int, cycle: int) -> None:
        super().on_grant(master_id, duration, cycle)
        self.base.on_grant(master_id, duration, cycle)
        trace = self._trace
        if trace is not None and trace.enabled:
            self.sync_trace(cycle)
            trace.record(
                cycle,
                "cba",
                "cba.drain",
                master=master_id,
                duration=duration,
                balances=self.credits.balances(cycle),
            )
        self.credits.grant(master_id, cycle, duration)
        if trace is not None and trace.enabled:
            self._push_refill_points(master_id)

    def on_request(self, master_id: int, cycle: int) -> None:
        self.base.on_request(master_id, cycle)

    # ------------------------------------------------------------------
    # Fast-forward support
    # ------------------------------------------------------------------
    def next_grant_opportunity(self, requestors: Sequence[int], cycle: int) -> int | None:
        """Earliest cycle a pending master clears both filters.

        A master that is already eligible gets its chance from the base
        policy now; a budget-blocked one gets the base policy's first chance
        at or after its ``eligible_from`` (e.g. its first TDMA slot once
        refilled).  Both are exact while no grant intervenes, and a grant is
        a bus tick that re-asks.  ``None`` when no pending master can ever be
        granted.
        """
        pending = self._validate_requestors(requestors)
        if not pending:
            return None
        eligible_from = self.credits.eligible_from
        eligible = [master for master in pending if eligible_from[master] <= cycle]
        base_next = self.base.next_grant_opportunity
        opportunity = base_next(eligible, cycle) if eligible else None
        for master in pending:
            refill = eligible_from[master]
            if refill > cycle and (opportunity is None or refill < opportunity):
                chance = base_next([master], refill)
                if chance is not None and (opportunity is None or chance < opportunity):
                    opportunity = chance
        return opportunity

    def advance_cycles(
        self,
        start_cycle: int,
        cycles: int,
        holder: int | None,
        idle_requestors: Sequence[int] = (),
    ) -> None:
        """The blocked-cycle accounting of the :meth:`arbitrate` calls that
        returned ``None`` while the bus idled with ``idle_requestors``.

        Every requestor is blocked until the first of them regains its
        budget, so the blocked stretch ends at the earliest ``eligible_from``
        (or at the window's end).  The budgets themselves need nothing: they
        are read in closed form.
        """
        self.base.advance_cycles(start_cycle, cycles, holder, idle_requestors)
        end = start_cycle + cycles
        if holder is None and idle_requestors:
            eligible_from = self.credits.eligible_from
            gain = min(eligible_from[master] for master in idle_requestors)
            if gain > start_cycle:
                self.blocked_cycles += (gain if gain < end else end) - start_cycle
        trace = self._trace
        if trace is not None and trace.enabled:
            self.sync_trace(end)

    def reset(self) -> None:
        super().reset()
        self.base.reset()
        self.credits.reset()
        self.blocked_cycles = 0
        if self._trace is not None:
            self.attach_trace(self._trace)

    # ------------------------------------------------------------------
    # Timeline
    # ------------------------------------------------------------------
    def _push_refill_points(self, core: int) -> None:
        for point in self.credits.eligibility_changes(core):
            if point > self._traced_through:
                heappush(self._refill_points, point)

    def sync_trace(self, cycle: int) -> None:
        """Record the ``cba.refill`` events of every cycle before ``cycle``.

        A stepped budget update at cycle ``c`` that changes the eligible set
        records the new set and balances at ``c``.  Those changes happen only
        at the cycles :meth:`CreditBank.eligibility_changes` names, so they
        are computed rather than polled, and recorded the next time the
        arbiter is called (or the platform syncs the trace at the end of a
        run).
        """
        if self._trace is None:
            return
        points = self._refill_points
        credits = self.credits
        while points and points[0] <= cycle:
            point = heappop(points)
            if point <= self._traced_through:
                continue
            self._traced_through = point
            eligible = credits.eligible_cores(point)
            if eligible != self._traced_eligible:
                self._traced_eligible = eligible
                self._trace.record(
                    point - 1,
                    "cba",
                    "cba.refill",
                    eligible=list(eligible),
                    balances=credits.balances(point),
                )
        if cycle > self._traced_through:
            self._traced_through = cycle

    # ------------------------------------------------------------------
    # Introspection helpers used by experiments and tests
    # ------------------------------------------------------------------
    def budget(self, core_id: int, cycle: int) -> int:
        """Scaled budget of ``core_id`` at ``cycle``."""
        return self.credits.balance(core_id, cycle)

    def budgets(self, cycle: int) -> list[int]:
        """Scaled budgets of all cores at ``cycle``."""
        return self.credits.balances(cycle)

    def eligible_cores(self, cycle: int) -> list[int]:
        """Cores whose budget allows arbitration at ``cycle``."""
        return self.credits.eligible_cores(cycle)

    def set_initial_budget(self, core_id: int, balance: int, cycle: int = 0) -> None:
        """Force a core's budget at ``cycle`` (0 for the TuA at analysis time)."""
        self.credits.set_initial_budget(core_id, balance, cycle)
        if self._trace is not None:
            self._push_refill_points(core_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CreditBasedArbiter(base={type(self.base).__name__}, "
            f"MaxL={self.params.max_latency}, N={self.params.num_cores})"
        )
