"""Credit (budget) accounts — the heart of CBA.

Each core owns a budget that tracks how much bus time it is entitled to use.
Equation 1 of the paper defines the dynamics:

``Budget_i(t+1) = min(Budget_i(t) + 1/N, MaxL)``

and the budget decreases by 1 for every cycle the core holds the bus.  To keep
all arithmetic integral (and match the 8-bit hardware counters of Table I),
budgets are stored *scaled by N*: the full budget is ``N * MaxL`` (224 for the
paper's ``N = 4``, ``MaxL = 56``), replenishment adds the core's scaled share
(1 for homogeneous CBA) per cycle, and holding the bus drains ``N`` per cycle.

A core is *eligible* for arbitration only when its budget is full — exactly
the filter rule of Section III-A.

:class:`CreditBank` is the only copy of the rule, and it applies it lazily.
A budget only changes regime when its core is granted the bus or released,
so each account is *anchored* at its last grant and every read is a closed
form of the cycle asked about:

* a core that does not hold the bus at cycle ``t`` has
  ``min(balance + share * (t - release), cap)``, with ``balance`` settled at
  its last release;
* the holder's drain is settled once, when the grant is made, by the closed
  form of :func:`_held_balance` over the whole transaction;
* the cycle a core regains a full budget (:attr:`CreditBank.eligible_from`)
  is therefore fixed from one grant to the next, and the eligibility filter
  is a comparison against it.

Nothing is applied per cycle.  Reads are exact at any cycle at or after the
anchor, in any order, so a lazily caught-up component may read behind one
that already read ahead.  The tests check the bank against the Table I
signal model (:mod:`repro.core.signals`) cycle by cycle, and against
Equation 1 stepped one cycle at a time for H-CBA shares and caps.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.config import CBAParameters
from ..sim.errors import BudgetError

__all__ = ["CreditAccount", "CreditBank"]


@dataclass(slots=True)
class CreditAccount:
    """The budget counter of one core (values scaled by the core count).

    Attributes
    ----------
    core_id:
        The core this account belongs to.
    full_budget:
        Scaled budget required for eligibility (``N * MaxL``).
    cap:
        Scaled saturation value.  Equal to ``full_budget`` for homogeneous
        CBA; H-CBA may let a favoured core accumulate beyond the full budget
        (Section III-A, option 1), enabling back-to-back grants.
    replenish_share:
        Scaled per-cycle replenishment (1 for homogeneous CBA, i.e. 1/N
        unscaled; H-CBA redistributes the N units across cores).  Never more
        than ``drain_per_cycle``: each share is one term of the drain's sum.
    drain_per_cycle:
        Scaled drain applied for each cycle the core holds the bus (``N``).
    balance:
        Current scaled budget.
    """

    core_id: int
    full_budget: int
    cap: int
    replenish_share: int
    drain_per_cycle: int
    balance: int = 0

    def __post_init__(self) -> None:
        if self.full_budget <= 0:
            raise BudgetError("full budget must be positive")
        if self.cap < self.full_budget:
            raise BudgetError("budget cap cannot be below the full budget")
        if self.replenish_share <= 0:
            raise BudgetError("replenishment share must be positive")
        if self.drain_per_cycle <= 0:
            raise BudgetError("drain per cycle must be positive")
        if self.replenish_share > self.drain_per_cycle:
            raise BudgetError("replenishment share cannot exceed the drain per cycle")
        if not 0 <= self.balance <= self.cap:
            raise BudgetError(
                f"initial balance {self.balance} outside [0, {self.cap}]"
            )

    @property
    def eligible(self) -> bool:
        """True when the core may be arbitrated (budget at least full)."""
        return self.balance >= self.full_budget

    @property
    def deficit(self) -> int:
        """Scaled budget still missing before the core becomes eligible."""
        return max(0, self.full_budget - self.balance)

    def cycles_until_eligible(self) -> int:
        """Cycles of replenishment needed before the core becomes eligible."""
        if self.eligible:
            return 0
        # Ceiling division: the last replenishment may overshoot into the cap.
        return -(-self.deficit // self.replenish_share)

    def reset(self, balance: int | None = None) -> None:
        """Set the balance (default: full)."""
        self.balance = self.full_budget if balance is None else balance
        if not 0 <= self.balance <= self.cap:
            raise BudgetError(f"reset balance {self.balance} outside [0, {self.cap}]")


def _held_balance(balance: int, share: int, drain: int, cap: int, cycles: int) -> int:
    """Balance after holding the bus ``cycles`` (at least one) cycles, each of
    which adds ``share`` saturating at ``cap`` and then pays ``drain`` floored
    at zero.  With ``share <= drain`` only the first cycle can clip at the
    cap, and the balance then falls by ``drain - share`` per cycle."""
    first = balance + share if balance + share < cap else cap
    return max(0, first - drain - (drain - share) * (cycles - 1))


class CreditBank:
    """The credit accounts of all cores, anchored at their holder changes.

    Per core the bank keeps an *anchor*: the cycle of the core's last grant
    (or reset), the balance at that cycle, the cycle the grant releases the
    bus, and — in :attr:`accounts` — the account settled at that release.
    Read budgets through the cycle-parameterised queries (:meth:`balance`,
    :meth:`eligible`, :meth:`balances`, ...): an account's own ``balance`` is
    its settled value, not the value at a later cycle.  The bus drives a bank
    through :meth:`grant` alone.
    """

    def __init__(self, params: CBAParameters) -> None:
        self.params = params
        self.full_budget = params.scaled_full_budget
        self.accounts = [
            CreditAccount(
                core_id=core,
                full_budget=params.scaled_full_budget,
                cap=params.cap_for(core),
                replenish_share=params.share_for(core),
                drain_per_cycle=params.drain_per_busy_cycle,
                balance=params.initial_for(core),
            )
            for core in range(params.num_cores)
        ]
        cores = params.num_cores
        #: Cycle of each core's anchor: its last grant, or a reset.
        self._anchor = [0] * cores
        #: Balance at the anchor.
        self._anchor_balance = [0] * cores
        #: Cycle the hold started at the anchor releases the bus (the anchor
        #: itself when the anchor is not a grant).
        self._release = [0] * cores
        #: A holder's budget never rises while it drains, so it is eligible
        #: from its grant up to this cycle (exclusive), then not until
        #: :attr:`eligible_from`.
        self._eligible_until = [0] * cores
        #: First cycle at or after its release at which each core's budget is
        #: full again.  Fixed from one grant of the core to the next.
        self.eligible_from = [0] * cores
        for core in range(cores):
            self._settle(core, 0)

    def __len__(self) -> int:
        return len(self.accounts)

    def __getitem__(self, core_id: int) -> CreditAccount:
        return self.accounts[core_id]

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def _settle(self, core: int, cycle: int) -> None:
        """Anchor ``core`` at ``cycle`` with its account's current balance."""
        account = self.accounts[core]
        self._anchor[core] = cycle
        self._release[core] = cycle
        self._eligible_until[core] = cycle
        self._anchor_balance[core] = account.balance
        self.eligible_from[core] = cycle + account.cycles_until_eligible()

    def grant(self, core: int, cycle: int, duration: int) -> None:
        """``core`` holds the bus for ``duration`` cycles from ``cycle``.

        Re-anchors the core at ``cycle`` and settles its whole drain at once:
        the account jumps to its balance at ``cycle + duration``, and the
        cycle it is eligible again follows from that in closed form.
        """
        if duration <= 0:
            raise BudgetError("a grant must hold the bus for at least one cycle")
        balance = self.balance(core, cycle)
        account = self.accounts[core]
        share = account.replenish_share
        drain = account.drain_per_cycle
        cap = account.cap
        full = self.full_budget
        # Eligibility during the hold.  The budget never rises while held
        # (share <= drain): after the first cycle, which may clip at the cap,
        # it falls by drain - share per cycle, so the cycles it stays full
        # are a leading run.
        if balance < full:
            until = cycle
        else:
            first = (balance + share if balance + share < cap else cap) - drain
            fall = drain - share
            if first < full:
                until = cycle + 1
            elif not fall:
                until = cycle + duration
            else:
                until = cycle + min(duration, (first - full) // fall + 2)
        settled = _held_balance(balance, share, drain, cap, duration)
        account.balance = settled
        release = cycle + duration
        self._anchor[core] = cycle
        self._anchor_balance[core] = balance
        self._release[core] = release
        self._eligible_until[core] = until
        deficit = full - settled
        self.eligible_from[core] = release if deficit <= 0 else release - (-deficit // share)

    def set_initial_budget(self, core_id: int, balance: int, cycle: int = 0) -> None:
        """Force a core's budget at ``cycle`` (the paper zeroes the TuA's
        budget when collecting WCET-estimation measurements)."""
        self.accounts[core_id].reset(balance)
        self._settle(core_id, cycle)

    def reset(self) -> None:
        for core, account in enumerate(self.accounts):
            account.reset(self.params.initial_for(core))
            self._settle(core, 0)

    # ------------------------------------------------------------------
    # Cycle-parameterised reads
    # ------------------------------------------------------------------
    def balance(self, core: int, cycle: int) -> int:
        """Scaled budget of ``core`` at ``cycle`` (after the updates of every
        cycle before it)."""
        account = self.accounts[core]
        release = self._release[core]
        if cycle >= release:
            balance = account.balance + account.replenish_share * (cycle - release)
            return balance if balance < account.cap else account.cap
        anchor = self._anchor[core]
        if cycle < anchor:
            raise BudgetError(
                f"core {core} is anchored at cycle {anchor}; cannot read cycle {cycle}"
            )
        if cycle == anchor:
            return self._anchor_balance[core]
        return _held_balance(
            self._anchor_balance[core],
            account.replenish_share,
            account.drain_per_cycle,
            account.cap,
            cycle - anchor,
        )

    def eligible(self, core: int, cycle: int) -> bool:
        """Whether ``core``'s budget is full at ``cycle``."""
        return cycle >= self.eligible_from[core] or (
            self._anchor[core] <= cycle < self._eligible_until[core]
        )

    def eligible_cores(self, cycle: int) -> list[int]:
        """Cores allowed to take part in arbitration at ``cycle``."""
        return [core for core in range(len(self.accounts)) if self.eligible(core, cycle)]

    def balances(self, cycle: int) -> list[int]:
        """Scaled budgets of all cores at ``cycle``."""
        return [self.balance(core, cycle) for core in range(len(self.accounts))]

    def eligibility_changes(self, core: int) -> tuple[int, int]:
        """The cycles ``core``'s eligibility may flip after its anchor: the
        end of its full-budget run during a hold, and its refill."""
        return self._eligible_until[core], self.eligible_from[core]
