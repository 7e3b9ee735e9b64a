"""Property-based tests of the credit bank's invariants.

Whatever sequence of grants the bus produces, these must hold for every
core of the anchored :class:`~repro.core.credit.CreditBank`:

* the balance never leaves ``[0, cap]`` and equals Equation 1 stepped one
  cycle at a time (the ``stepped`` fixture), H-CBA shares and caps included;
* conservation: every cycle the balance moves by what the core earns (its
  share, up to its cap) minus what it pays (the drain, only while it holds
  the bus, and only down to zero);
* no credit is created out of thin air: a core never pays for more than its
  initial budget plus its replenishment.
"""

from __future__ import annotations

from itertools import groupby

from hypothesis import given, settings, strategies as st

from repro.core.credit import CreditBank, _held_balance
from repro.sim.config import CBAParameters


# A schedule is a list of per-cycle holders (None = bus idle).
holder_schedules = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    min_size=1,
    max_size=400,
)


def _granted_balances(bank, holders):
    """Grant ``bank`` the bus as ``holders`` holds it, one grant per run of
    cycles with the same holder, and read its balances at every cycle
    boundary (each read at or after the grants before it)."""
    grants = {}
    start = 0
    for holder, run in groupby(holders):
        length = len(list(run))
        if holder is not None:
            grants[start] = (holder, length)
        start += length
    states = []
    for cycle in range(len(holders) + 1):
        if cycle in grants:
            bank.grant(grants[cycle][0], cycle, grants[cycle][1])
        states.append(bank.balances(cycle))
    return states


def _flows(params, states):
    """Per cycle and core, ``(earned, paid)`` between consecutive balances: a
    cycle earns the share up to the cap, and the rest of the move is paid."""
    flows = []
    for before, after in zip(states, states[1:]):
        row = []
        for core, (old, new) in enumerate(zip(before, after, strict=True)):
            earned = min(old + params.share_for(core), params.cap_for(core)) - old
            row.append((earned, old + earned - new))
        flows.append(row)
    return flows


@given(holder_schedules)
@settings(max_examples=80, deadline=None)
def test_balances_stay_within_bounds(stepped, schedule):
    params = CBAParameters(max_latency=56, num_cores=4)
    states = _granted_balances(CreditBank(params), schedule)
    assert states == stepped(params, schedule)
    for balances in states:
        for core, balance in enumerate(balances):
            assert 0 <= balance <= params.cap_for(core)


@given(holder_schedules)
@settings(max_examples=80, deadline=None)
def test_conservation_of_credit(schedule):
    params = CBAParameters(max_latency=56, num_cores=4)
    states = _granted_balances(CreditBank(params), schedule)
    drain = params.drain_per_busy_cycle
    for cycle, row in enumerate(_flows(params, states)):
        for core, (_, paid) in enumerate(row):
            if core != schedule[cycle]:
                assert paid == 0
            elif paid != drain:
                # Only a balance that reaches zero pays less than the drain.
                assert 0 <= paid < drain and states[cycle + 1][core] == 0


@given(holder_schedules, st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_busy_cycles_bounded_by_replenishment(schedule, num_cores):
    """A core can never have spent more cycles on the bus than its initial
    budget plus its replenishment allows — the mechanism that guarantees the
    cycle-fair bandwidth split."""
    params = CBAParameters(max_latency=56, num_cores=num_cores)
    holders = [h if h is not None and h < num_cores else None for h in schedule]
    flows = _flows(params, _granted_balances(CreditBank(params), holders))
    for core in range(num_cores):
        earned = sum(row[core][0] for row in flows)
        paid = sum(row[core][1] for row in flows)
        spent = holders.count(core) * params.drain_per_busy_cycle
        assert paid <= spent
        assert paid <= earned + params.scaled_full_budget


# ----------------------------------------------------------------------
# Grants vs Equation 1 stepped per cycle
# ----------------------------------------------------------------------
# A grant settles the holder's whole drain in closed form; the strategies
# below deliberately produce caps above the full budget, heterogeneous
# shares, partial starting balances, and schedules that mix holder and
# no-holder stretches.


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


stretch_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    ),
    min_size=1,
    max_size=12,
)


@given(cba_parameters(), stretch_schedules, st.data())
@settings(max_examples=120, deadline=None)
def test_grants_match_repeated_step(stepped, params, schedule, data):
    """Grants (closed-form holder drain) read exactly as Equation 1 stepped
    one cycle at a time, at every cycle."""
    bank = CreditBank(params)
    start = []
    for core in range(params.num_cores):
        balance = data.draw(
            st.integers(min_value=0, max_value=params.cap_for(core)),
            label=f"balance[{core}]",
        )
        bank.set_initial_budget(core, balance)
        start.append(balance)
    holders = []
    for cycles, holder in schedule:
        holder = holder if holder is not None and holder < params.num_cores else None
        holders += [holder] * cycles
    assert _granted_balances(bank, holders) == stepped(params, holders, start)


@given(
    st.integers(min_value=1, max_value=40),   # full budget
    st.integers(min_value=0, max_value=60),   # cap headroom above full
    st.integers(min_value=1, max_value=50),   # drain per cycle
    st.integers(min_value=1, max_value=250),  # cycles
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_hold_closed_form_matches_per_cycle_update(full, headroom, drain, cycles, data):
    """The holder's closed form over every share the accounts admit
    (``share <= drain``, including equality, which CBAParameters cannot
    produce) and any cap."""
    cap = full + headroom
    share = data.draw(st.integers(min_value=1, max_value=drain), label="share")
    balance = data.draw(st.integers(min_value=0, max_value=cap), label="balance")
    expected = balance
    for _ in range(cycles):
        expected = min(expected + share, cap)
        expected -= min(drain, expected)
    assert _held_balance(balance, share, drain, cap, cycles) == expected


@given(
    st.integers(min_value=1, max_value=56),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=1, max_value=56),
)
@settings(max_examples=60, deadline=None)
def test_recovery_time_is_n_minus_one_times_duration(
    stepped, duration, num_cores, max_latency
):
    """After holding the bus for ``d`` cycles from a full budget, a core needs
    ``(N-1) * d + 1`` idle cycles to become eligible again: the net drain is
    (N-1)/N per busy cycle, except that in the first busy cycle the +1
    replenishment is lost to saturation (the counter was already full)."""
    if duration > max_latency:
        duration, max_latency = max_latency, duration
    params = CBAParameters(max_latency=max_latency, num_cores=num_cores)
    bank = CreditBank(params)
    bank.grant(0, 0, duration)
    recovery = (num_cores - 1) * duration + 1
    assert bank.eligible_from[0] == duration + recovery
    states = stepped(params, [0] * duration + [None] * recovery)
    refilled = [
        cycle for cycle, state in enumerate(states)
        if cycle >= duration and state[0] >= params.scaled_full_budget
    ]
    assert refilled == [duration + recovery]
