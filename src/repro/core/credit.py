"""Credit (budget) accounts — the heart of CBA.

Each core owns a budget that tracks how much bus time it is entitled to use.
Equation 1 of the paper defines the dynamics:

``Budget_i(t+1) = min(Budget_i(t) + 1/N, MaxL)``

and the budget decreases by 1 for every cycle the core holds the bus.  To keep
all arithmetic integral (and match the 8-bit hardware counters of Table I),
budgets are stored *scaled by N*: the full budget is ``N * MaxL`` (228 for the
paper's ``N = 4``, ``MaxL = 56``), replenishment adds the core's scaled share
(1 for homogeneous CBA) per cycle, and holding the bus drains ``N`` per cycle.

A core is *eligible* for arbitration only when its budget is full — exactly
the filter rule of Section III-A.

:class:`CreditAccount` applies Equation 1 literally, one cycle (or one closed
form over a run of cycles) at a time.  :class:`CreditBank` applies it lazily.
A budget only changes regime when its core is granted the bus or released,
so each account is *anchored* at its last grant and every read is a closed
form of the cycle asked about:

* a core that does not hold the bus at cycle ``t`` has
  ``min(balance + share * (t - release), cap)``, with ``balance`` settled at
  its last release;
* the holder's drain is settled once, when the grant is made, by the closed
  form of :meth:`CreditAccount.advance_as_holder` over the whole transaction;
* the cycle a core regains a full budget (:attr:`CreditBank.eligible_from`)
  is therefore fixed from one grant to the next, and the eligibility filter
  is a comparison against it.

Nothing is applied per cycle.  Reads are exact at any cycle at or after the
anchor, in any order, so a lazily caught-up component may read behind one
that already read ahead.  :meth:`CreditBank.step` and
:meth:`CreditBank.advance` keep the per-cycle form as the reference the tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        unscaled; H-CBA redistributes the N units across cores).
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
    #: Running totals for analysis: how much was ever earned / spent.
    total_replenished: int = field(default=0, repr=False)
    total_drained: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.full_budget <= 0:
            raise BudgetError("full budget must be positive")
        if self.cap < self.full_budget:
            raise BudgetError("budget cap cannot be below the full budget")
        if self.replenish_share <= 0:
            raise BudgetError("replenishment share must be positive")
        if self.drain_per_cycle <= 0:
            raise BudgetError("drain per cycle must be positive")
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

    def replenish(self) -> None:
        """Apply one cycle of budget recovery (saturating at the cap)."""
        new_balance = min(self.balance + self.replenish_share, self.cap)
        self.total_replenished += new_balance - self.balance
        self.balance = new_balance

    def replenish_many(self, cycles: int) -> None:
        """Apply ``cycles`` cycles of recovery at once.

        Exactly equivalent to ``cycles`` :meth:`replenish` calls: the balance
        saturates at the cap, and ``total_replenished`` accumulates only what
        was actually gained.
        """
        new_balance = min(self.balance + self.replenish_share * cycles, self.cap)
        self.total_replenished += new_balance - self.balance
        self.balance = new_balance

    def advance_as_holder(self, cycles: int) -> None:
        """Apply ``cycles`` cycles of interleaved replenish-then-drain at once.

        Exactly equivalent to ``cycles`` iterations of the per-cycle holder
        update (:meth:`replenish` followed by :meth:`drain`), in O(1) time:

        ``new = min(balance + share, cap); paid = min(drain, new); balance = new - paid``

        The trajectory of that recurrence passes through at most three
        regimes, each with a closed form:

        * **cap clip** — ``balance + share`` saturates at the cap before the
          drain is applied.  With ``share <= drain`` this happens at most once
          (the first cycle of a transaction started at a cap above the full
          budget); with ``share > min(drain, cap)`` the balance pins at the
          cap and every following cycle clips identically (a fixed point).
        * **linear** — no saturation and the drain is fully covered, so the
          balance moves by ``share - drain`` per cycle; the number of cycles
          until the regime exits (into the floor going down, into the clip
          going up) is a single division.
        * **floor** — the drain exceeds the (unclipped) balance, the whole
          balance is paid out and sticks at zero; every following cycle earns
          and immediately pays ``min(share, cap)`` (a fixed point).

        ``total_replenished``/``total_drained`` accumulate exactly what the
        per-cycle loop would have accumulated.  The loop of the closed form
        iterates over *regime transitions* (at most three), never over cycles,
        which is what makes a grant's settlement O(1) regardless of
        transaction length.
        """
        balance, replenished, drained = _hold_trajectory(
            self.balance, self.replenish_share, self.drain_per_cycle, self.cap, cycles
        )
        self.balance = balance
        self.total_replenished += replenished
        self.total_drained += drained

    def drain(self) -> None:
        """Charge one cycle of bus usage.

        The balance is floored at zero: with the paper's parameters a core can
        only be granted with a full budget and the longest transaction exactly
        exhausts it (``MaxL`` cycles × drain ``N`` = ``N*MaxL``), but H-CBA
        caps above the full budget plus the concurrent replenishment make the
        floor a safety net rather than dead code.
        """
        drained = min(self.drain_per_cycle, self.balance)
        self.total_drained += drained
        self.balance -= drained

    def reset(self, balance: int | None = None) -> None:
        """Reset the running totals and set the balance (default: full)."""
        self.balance = self.full_budget if balance is None else balance
        if not 0 <= self.balance <= self.cap:
            raise BudgetError(f"reset balance {self.balance} outside [0, {self.cap}]")
        self.total_replenished = 0
        self.total_drained = 0


def _hold_trajectory(
    balance: int, share: int, drain: int, cap: int, cycles: int
) -> tuple[int, int, int]:
    """``(balance, replenished, drained)`` after holding the bus ``cycles`` cycles.

    The closed form behind :meth:`CreditAccount.advance_as_holder`: starting
    from ``balance``, each cycle adds ``share`` (saturating at ``cap``) and
    then pays ``drain`` (floored at zero).  The loop runs once per regime
    transition (at most three), never once per cycle.
    """
    if cycles <= 0:
        return balance, 0, 0
    replenished = 0
    drained = 0
    remaining = cycles
    while remaining > 0:
        new_balance = balance + share
        if new_balance > cap:
            # Cap-clip cycle: saturate, then drain from the cap.
            gained = cap - balance
            paid = drain if drain < cap else cap
            balance = cap - paid
            if balance + share > cap:
                # Fixed point: every following cycle regains exactly what
                # the drain took (clipped at the cap) and pays it again.
                replenished += gained + paid * (remaining - 1)
                drained += paid * remaining
                remaining = 0
            else:
                replenished += gained
                drained += paid
                remaining -= 1
        elif new_balance < drain:
            # Floor cycle: the whole balance is paid out; afterwards the
            # balance sticks at zero, earning and paying min(share, cap)
            # every cycle (share < drain here, so it never recovers).
            replenished += share
            drained += new_balance
            balance = 0
            remaining -= 1
            if remaining:
                steady = share if share < cap else cap
                replenished += steady * remaining
                drained += steady * remaining
                remaining = 0
        else:
            # Linear regime: balance moves by share - drain per cycle.
            if share == drain:
                replenished += share * remaining
                drained += drain * remaining
                remaining = 0
            elif share > drain:
                # Rising towards the cap: count the cycles that stay
                # unclipped, bulk-apply them, then the clip fixed point
                # (next iteration) absorbs the rest.
                rise = share - drain
                unclipped = (cap - share - balance) // rise + 1
                steps = unclipped if unclipped < remaining else remaining
                replenished += share * steps
                drained += drain * steps
                balance += rise * steps
                remaining -= steps
            else:
                # Falling towards the floor: the regime holds while
                # balance >= drain - share.
                fall = drain - share
                covered = balance // fall
                steps = covered if covered < remaining else remaining
                replenished += share * steps
                drained += drain * steps
                balance -= fall * steps
                remaining -= steps
    return balance, replenished, drained


class CreditBank:
    """The credit accounts of all cores, anchored at their holder changes.

    Per core the bank keeps an *anchor*: the cycle of the core's last grant
    (or reset), the account state at that cycle, the cycle the grant
    releases the bus, and — in :attr:`accounts` — the account settled at that
    release.  Read budgets through the cycle-parameterised queries
    (:meth:`balance`, :meth:`eligible`, :meth:`balances`, ...): an account's
    own ``balance`` is its settled value, not the value at a later cycle.

    The bus drives a bank through :meth:`grant` alone.  :meth:`step` and
    :meth:`advance` are the per-cycle reference instead (they re-anchor every
    account at the cycles they have applied); a bank is driven by one or the
    other, never both.
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
        #: ``(balance, total_replenished, total_drained)`` at the anchor.
        self._anchor_state = [(0, 0, 0)] * cores
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
        #: Cycles applied so far by the stepped reference.
        self._stepped = 0
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
        """Anchor ``core`` at ``cycle`` with its account's current state."""
        account = self.accounts[core]
        self._anchor[core] = cycle
        self._release[core] = cycle
        self._eligible_until[core] = cycle
        self._anchor_state[core] = (
            account.balance,
            account.total_replenished,
            account.total_drained,
        )
        self.eligible_from[core] = cycle + account.cycles_until_eligible()

    def grant(self, core: int, cycle: int, duration: int) -> None:
        """``core`` holds the bus for ``duration`` cycles from ``cycle``.

        Re-anchors the core at ``cycle`` and settles its whole drain at once:
        the account jumps to its state at ``cycle + duration``, and the cycle
        it is eligible again follows from that in closed form.
        """
        if duration <= 0:
            raise BudgetError("a grant must hold the bus for at least one cycle")
        balance, replenished, drained = self._state(core, cycle)
        account = self.accounts[core]
        share = account.replenish_share
        drain = account.drain_per_cycle
        cap = account.cap
        full = self.full_budget
        # Eligibility during the hold.  The budget never rises while held
        # (the shares sum to the drain, so share <= drain): after the first
        # cycle, which may clip at the cap, it falls by drain - share per
        # cycle, so the cycles it stays full are a leading run.
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
        settled, gained, paid = _hold_trajectory(balance, share, drain, cap, duration)
        account.balance = settled
        account.total_replenished = replenished + gained
        account.total_drained = drained + paid
        release = cycle + duration
        self._anchor[core] = cycle
        self._anchor_state[core] = (balance, replenished, drained)
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
        self._stepped = 0
        for core, account in enumerate(self.accounts):
            account.reset(self.params.initial_for(core))
            self._settle(core, 0)

    # ------------------------------------------------------------------
    # Cycle-parameterised reads
    # ------------------------------------------------------------------
    def _state(self, core: int, cycle: int) -> tuple[int, int, int]:
        """``(balance, total_replenished, total_drained)`` of ``core`` at
        ``cycle`` (after the updates of every cycle before it)."""
        account = self.accounts[core]
        release = self._release[core]
        if cycle >= release:
            balance = account.balance + account.replenish_share * (cycle - release)
            if balance > account.cap:
                balance = account.cap
            return (
                balance,
                account.total_replenished + balance - account.balance,
                account.total_drained,
            )
        anchor = self._anchor[core]
        if cycle < anchor:
            raise BudgetError(
                f"core {core} is anchored at cycle {anchor}; cannot read cycle {cycle}"
            )
        balance, replenished, drained = self._anchor_state[core]
        balance, gained, paid = _hold_trajectory(
            balance, account.replenish_share, account.drain_per_cycle, account.cap, cycle - anchor
        )
        return balance, replenished + gained, drained + paid

    def balance(self, core: int, cycle: int) -> int:
        """Scaled budget of ``core`` at ``cycle``."""
        return self._state(core, cycle)[0]

    def totals(self, core: int, cycle: int) -> tuple[int, int]:
        """``(total_replenished, total_drained)`` of ``core`` up to ``cycle``."""
        _, replenished, drained = self._state(core, cycle)
        return replenished, drained

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
        return [self._state(core, cycle)[0] for core in range(len(self.accounts))]

    def eligibility_changes(self, core: int) -> tuple[int, int]:
        """The cycles ``core``'s eligibility may flip after its anchor: the
        end of its full-budget run during a hold, and its refill."""
        return self._eligible_until[core], self.eligible_from[core]

    # ------------------------------------------------------------------
    # Stepped reference
    # ------------------------------------------------------------------
    def step(self, holder: int | None) -> None:
        """Apply Equation 1 for one cycle: replenish every core, drain the
        bus ``holder``."""
        for account in self.accounts:
            account.replenish()
        if holder is not None:
            self.accounts[holder].drain()
        self._restep(1)

    def advance(self, cycles: int, holder: int | None) -> None:
        """Apply ``cycles`` cycles at once with a constant bus ``holder``.

        Exactly equivalent to ``cycles`` :meth:`step` calls, in O(1) time per
        account: non-holders only replenish (:meth:`CreditAccount.replenish_many`)
        and the holder's interleaved replenish/drain dynamics collapse into the
        three-regime closed form of :meth:`CreditAccount.advance_as_holder`.
        """
        for account in self.accounts:
            if account.core_id == holder:
                account.advance_as_holder(cycles)
            else:
                account.replenish_many(cycles)
        self._restep(cycles)

    def _restep(self, cycles: int) -> None:
        self._stepped += cycles
        for core in range(len(self.accounts)):
            self._settle(core, self._stepped)
