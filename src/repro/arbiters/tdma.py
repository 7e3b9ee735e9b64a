"""Time-division multiple access (TDMA) arbitration.

Time is split into fixed-length slots assigned to masters in a static
schedule.  Following the description in Section II of the paper (and the
deconstruction in Jalle et al., SIES 2013), a request may only start in the
*first cycle* of its owner's slot: since the duration of a request is unknown
a priori, starting it later could overrun into the next slot and perturb the
other masters' guaranteed slots.  The slot length therefore matches the
longest possible request (``MaxL``), and a request shorter than the slot
leaves the bus idle for the remainder of the slot — exactly the bandwidth
waste the paper describes.
"""

from __future__ import annotations

from typing import Sequence

from ..sim.errors import ArbitrationError
from .base import Arbiter

__all__ = ["TDMAArbiter"]


class TDMAArbiter(Arbiter):
    """Static slot-based arbitration with issue-at-slot-start semantics."""

    policy_name = "tdma"

    def __init__(
        self,
        num_masters: int,
        slot_cycles: int = 56,
        schedule: Sequence[int] | None = None,
        issue_only_at_slot_start: bool = True,
    ) -> None:
        """Create the arbiter.

        Parameters
        ----------
        slot_cycles:
            Length of each TDMA slot; the paper sizes it as ``MaxL``.
        schedule:
            Sequence of master indices owning consecutive slots.  Defaults to
            ``0, 1, ..., num_masters - 1`` repeating.
        issue_only_at_slot_start:
            When True (paper semantics) the slot owner may only be granted in
            the first cycle of its slot.  When False the owner may be granted
            at any point of its slot where the remaining slot length still
            covers ``slot_cycles`` (a common "work-conserving within slot"
            variant, exposed for ablation).
        """
        super().__init__(num_masters)
        if slot_cycles <= 0:
            raise ArbitrationError("TDMA slot length must be positive")
        if schedule is None:
            schedule = list(range(num_masters))
        schedule = list(schedule)
        if not schedule:
            raise ArbitrationError("TDMA schedule cannot be empty")
        for master in schedule:
            if not 0 <= master < num_masters:
                raise ArbitrationError(f"TDMA schedule references unknown master {master}")
        self.slot_cycles = slot_cycles
        self.schedule = schedule
        self.issue_only_at_slot_start = issue_only_at_slot_start

    # ------------------------------------------------------------------
    # Schedule helpers
    # ------------------------------------------------------------------
    def slot_index(self, cycle: int) -> int:
        """Index into the schedule of the slot containing ``cycle``."""
        return (cycle // self.slot_cycles) % len(self.schedule)

    def slot_owner(self, cycle: int) -> int:
        """Master owning the slot containing ``cycle``."""
        return self.schedule[self.slot_index(cycle)]

    def cycle_within_slot(self, cycle: int) -> int:
        """Offset of ``cycle`` within its slot (0 = slot start)."""
        return cycle % self.slot_cycles

    def next_grant_opportunity(self, requestors: Sequence[int], cycle: int) -> int | None:
        """First cycle ``>= cycle`` at which a pending master's slot allows a grant.

        With issue-at-slot-start semantics that is the next slot *boundary*
        owned by a pending master; in the work-conserving variant the current
        slot also qualifies mid-slot when its owner is pending.  ``None`` when
        no pending master owns any slot of the schedule (it would starve).
        """
        pending = set(self._validate_requestors(requestors))
        if not pending:
            return None
        offset = cycle % self.slot_cycles
        if self.slot_owner(cycle) in pending and (
            not self.issue_only_at_slot_start or offset == 0
        ):
            return cycle
        probe = cycle - offset + self.slot_cycles
        for _ in range(len(self.schedule)):
            if self.slot_owner(probe) in pending:
                return probe
            probe += self.slot_cycles
        return None

    # ------------------------------------------------------------------
    # Arbiter interface
    # ------------------------------------------------------------------
    def arbitrate(self, requestors: Sequence[int], cycle: int) -> int | None:
        pending = set(self._validate_requestors(requestors))
        if not pending:
            return None
        owner = self.slot_owner(cycle)
        if owner not in pending:
            return None
        if self.issue_only_at_slot_start and self.cycle_within_slot(cycle) != 0:
            return None
        return self._validate_choice(owner, requestors)
