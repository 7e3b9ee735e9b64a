"""Property-based tests of the credit-account invariants.

Whatever sequence of grants the bus produces, three invariants must hold for
every credit account:

* the balance never leaves ``[0, cap]``;
* the balance never exceeds what replenishment alone could have produced
  (no credit is created out of thin air);
* conservation: balance equals the initial balance plus everything
  replenished minus everything drained.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.credit import CreditAccount, CreditBank
from repro.sim.config import CBAParameters


# A schedule is a list of per-cycle holders (None = bus idle).
holder_schedules = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=400,
)


@given(holder_schedules)
@settings(max_examples=80, deadline=None)
def test_balances_stay_within_bounds(schedule):
    params = CBAParameters(max_latency=56, num_cores=4)
    bank = CreditBank(params)
    for holder in schedule:
        bank.step(holder)
        for account in bank.accounts:
            assert 0 <= account.balance <= account.cap


@given(holder_schedules)
@settings(max_examples=80, deadline=None)
def test_conservation_of_credit(schedule):
    params = CBAParameters(max_latency=56, num_cores=4)
    bank = CreditBank(params)
    initial = bank.balances(0)
    for holder in schedule:
        bank.step(holder)
    for start, account in zip(initial, bank.accounts, strict=True):
        assert account.balance == start + account.total_replenished - account.total_drained


@given(holder_schedules, st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_busy_cycles_bounded_by_replenishment(schedule, num_cores):
    """A core can never have spent more cycles on the bus than its initial
    budget plus its replenishment allows — the mechanism that guarantees the
    cycle-fair bandwidth split."""
    params = CBAParameters(max_latency=56, num_cores=num_cores)
    bank = CreditBank(params)
    busy = [0] * num_cores
    for holder in schedule:
        holder = holder if holder is not None and holder < num_cores else None
        if holder is not None:
            busy[holder] += 1
        bank.step(holder)
    for core, account in enumerate(bank.accounts):
        spent = busy[core] * params.drain_per_busy_cycle
        earned = account.total_replenished + params.scaled_full_budget
        assert account.total_drained <= spent
        assert account.total_drained <= earned


# ----------------------------------------------------------------------
# Closed-form advance() vs repeated step()
# ----------------------------------------------------------------------
# advance(cycles, holder) promises exact equivalence to `cycles` step(holder)
# calls; the holder's closed form has three regimes (cap clip, linear drain,
# floor), so the strategies below deliberately produce caps above the full
# budget, heterogeneous shares, partial starting balances, and schedules that
# mix holder and no-holder stretches.


@st.composite
def cba_parameters(draw):
    num_cores = draw(st.integers(min_value=2, max_value=5))
    max_latency = draw(st.integers(min_value=1, max_value=56))
    shares = None
    if draw(st.booleans()):
        shares = tuple(
            draw(st.integers(min_value=1, max_value=6)) for _ in range(num_cores)
        )
    params = CBAParameters(
        max_latency=max_latency, num_cores=num_cores, replenish_shares=shares
    )
    caps = None
    if draw(st.booleans()):
        full = params.scaled_full_budget
        caps = tuple(
            full + draw(st.integers(min_value=0, max_value=3 * params.scale))
            for _ in range(num_cores)
        )
    return CBAParameters(
        max_latency=max_latency,
        num_cores=num_cores,
        replenish_shares=shares,
        budget_caps=caps,
    )


advance_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    ),
    min_size=1,
    max_size=12,
)


def _account_state(bank):
    return [
        (acct.balance, acct.total_replenished, acct.total_drained)
        for acct in bank.accounts
    ]


@given(cba_parameters(), advance_schedules, st.data())
@settings(max_examples=120, deadline=None)
def test_advance_matches_repeated_step(params, schedule, data):
    """advance() (closed-form holder drain) is exactly `cycles` x step()."""
    bulk = CreditBank(params)
    stepped = CreditBank(params)
    # Partial starting balances, identical on both banks.
    for core in range(params.num_cores):
        balance = data.draw(
            st.integers(min_value=0, max_value=params.cap_for(core)),
            label=f"balance[{core}]",
        )
        bulk[core].reset(balance)
        stepped[core].reset(balance)
    for cycles, holder in schedule:
        holder = holder if holder is not None and holder < params.num_cores else None
        bulk.advance(cycles, holder)
        for _ in range(cycles):
            stepped.step(holder)
        assert _account_state(bulk) == _account_state(stepped)


@given(
    st.integers(min_value=1, max_value=40),   # full budget
    st.integers(min_value=0, max_value=60),   # cap headroom above full
    st.integers(min_value=1, max_value=50),   # replenish share
    st.integers(min_value=1, max_value=50),   # drain per cycle
    st.integers(min_value=0, max_value=250),  # cycles
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_advance_as_holder_matches_per_cycle_update(
    full, headroom, share, drain, cycles, data
):
    """The raw account closed form covers every regime combination — including
    share > drain and share > cap, which CBAParameters cannot produce but a
    directly built account can."""
    cap = full + headroom
    balance = data.draw(st.integers(min_value=0, max_value=cap), label="balance")
    account = CreditAccount(
        core_id=0,
        full_budget=full,
        cap=cap,
        replenish_share=share,
        drain_per_cycle=drain,
        balance=balance,
    )
    account.advance_as_holder(cycles)

    expected_balance, replenished, drained = balance, 0, 0
    for _ in range(cycles):
        new = min(expected_balance + share, cap)
        replenished += new - expected_balance
        paid = min(drain, new)
        drained += paid
        expected_balance = new - paid
    assert account.balance == expected_balance
    assert account.total_replenished == replenished
    assert account.total_drained == drained


@given(
    st.integers(min_value=1, max_value=56),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=56),
)
@settings(max_examples=60, deadline=None)
def test_recovery_time_is_n_minus_one_times_duration(duration, num_cores, max_latency):
    """After holding the bus for ``d`` cycles from a full budget, a core needs
    ``(N-1) * d + 1`` idle cycles to become eligible again: the net drain is
    (N-1)/N per busy cycle, except that in the first busy cycle the +1
    replenishment is lost to saturation (the counter was already full)."""
    if duration > max_latency:
        duration, max_latency = max_latency, duration
    params = CBAParameters(max_latency=max_latency, num_cores=num_cores)
    bank = CreditBank(params)
    for _ in range(duration):
        bank.step(holder=0)
    recovery = 0
    while not bank[0].eligible:
        bank.step(holder=None)
        recovery += 1
    assert recovery == (num_cores - 1) * duration + 1
