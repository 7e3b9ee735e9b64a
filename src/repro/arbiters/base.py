"""Common interface of all bus arbitration policies.

An arbiter answers one question every cycle: *given the set of masters with a
pending, eligible request, which one (if any) is granted the bus?*  All the
policies studied in the paper — FIFO, round-robin, TDMA, lottery, random
permutations — implement this interface, and the credit-based arbitration of
the paper (:class:`repro.core.cba.CreditBasedArbiter`) wraps any of them,
filtering the set of eligible masters by budget before delegating.

The bus drives an arbiter only at state transitions, never per cycle:

* :meth:`Arbiter.on_request` when a master asserts a request;
* :meth:`Arbiter.arbitrate` when the bus is idle and at least one master has a
  pending request;
* :meth:`Arbiter.on_grant` when the grant actually happens, with the resolved
  transaction duration;
* :meth:`Arbiter.next_grant_opportunity` and :meth:`Arbiter.advance_cycles`
  when the kernel skips cycles (the wake of an idle bus with pending
  requests, and the accounting of the cycles skipped).

Time-dependent policy state is a function of the cycle argument (TDMA slots)
or is anchored at grants and read in closed form (CBA credit budgets).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..sim.errors import ArbitrationError

__all__ = ["Arbiter"]


class Arbiter(ABC):
    """Abstract bus arbiter."""

    #: Short policy identifier used by the registry and in reports.
    policy_name: str = "abstract"

    def __init__(self, num_masters: int) -> None:
        if num_masters <= 0:
            raise ArbitrationError("an arbiter needs at least one master")
        self.num_masters = num_masters
        self.grants_per_master = [0] * num_masters
        self.cycles_granted_per_master = [0] * num_masters

    # ------------------------------------------------------------------
    # Policy interface
    # ------------------------------------------------------------------
    @abstractmethod
    def arbitrate(self, requestors: Sequence[int], cycle: int) -> int | None:
        """Return the master to grant among ``requestors``, or ``None``.

        ``requestors`` is the list of master indices with a pending, eligible
        request this cycle.  Implementations must only ever return a member of
        ``requestors`` (or ``None`` to leave the bus idle, e.g. TDMA outside
        the owner's slot).
        """

    def _arbitrate_valid(self, pending: list[int], cycle: int) -> int | None:
        """:meth:`arbitrate` among ``pending``, a non-empty list of in-range
        masters that a wrapping policy (CBA) has already validated.

        Policies on the hot path override it to skip the second validation;
        the default is the public entry.
        """
        return self.arbitrate(pending, cycle)

    def on_grant(self, master_id: int, duration: int, cycle: int) -> None:
        """Notification that ``master_id`` was granted for ``duration`` cycles.

        Subclasses overriding this must call ``super().on_grant`` so the
        per-master grant accounting stays correct.
        """
        self.grants_per_master[master_id] += 1
        self.cycles_granted_per_master[master_id] += duration

    def on_request(self, master_id: int, cycle: int) -> None:
        """Notification that ``master_id`` asserted a new request at ``cycle``.

        Most policies ignore it; FIFO uses it to order grants by arrival time.
        """

    # ------------------------------------------------------------------
    # Fast-forward support
    # ------------------------------------------------------------------
    def next_grant_opportunity(self, requestors: Sequence[int], cycle: int) -> int | None:
        """Earliest cycle ``>= cycle`` at which one of ``requestors`` could be granted.

        Called by the bus while it sits idle with pending requests, to bound
        how far the kernel may fast-forward.  The value must never be later
        than the true next grant (being early merely wastes a wake-up; being
        late would change behaviour).  Policies that grant whenever anyone
        requests keep the conservative default of ``cycle`` — with such a
        policy the bus never idles with pending requests anyway.  ``None``
        means no member of ``requestors`` can ever be granted (e.g. a master
        absent from a TDMA schedule).
        """
        return cycle

    def advance_cycles(
        self,
        start_cycle: int,
        cycles: int,
        holder: int | None,
        idle_requestors: Sequence[int] = (),
    ) -> None:
        """Account ``cycles`` skipped bus cycles from ``start_cycle``.

        The bus was held by ``holder`` (or idle) throughout.  When it idled
        with ``idle_requestors`` pending, this must reproduce what the
        :meth:`arbitrate` calls that returned ``None`` in those cycles would
        have done; the bus calls it for such windows only, because no other
        skipped cycle reaches the arbiter.  The default does nothing: no
        policy here keeps state those calls change (CBA counts its blocked
        cycles).
        """

    def reset(self) -> None:
        """Return the arbiter to its power-on state."""
        self.grants_per_master = [0] * self.num_masters
        self.cycles_granted_per_master = [0] * self.num_masters

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _validate_requestors(self, requestors: Sequence[int]) -> list[int]:
        """Check requestor indices and return them as a new list."""
        out = list(requestors)
        if out and (min(out) < 0 or max(out) >= self.num_masters):
            master = next(m for m in out if not 0 <= m < self.num_masters)
            raise ArbitrationError(
                f"requestor {master} out of range for {self.num_masters} masters"
            )
        return out

    def _validate_choice(self, choice: int | None, requestors: Sequence[int]) -> int | None:
        """Ensure the arbitration decision is legal."""
        if choice is not None and choice not in requestors:
            raise ArbitrationError(
                f"{type(self).__name__} granted master {choice}, which is not requesting"
            )
        return choice

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_masters={self.num_masters})"
