"""The event-anchored credit bank against the per-cycle reference.

The production :class:`~repro.core.credit.CreditBank` is only told about
grants; every read is a closed form of the cycle asked about.  These tests
drive random bus timelines — grants of 1..MaxL cycles separated by idle
gaps — through it and through :meth:`CreditBank.step`, and compare, cycle by
cycle: balances, replenish/drain totals, eligibility, the wait until a core
is eligible again, and the ``cba.refill`` events (the cycles at which the
eligible set changes).  Reads land anywhere at or after the latest grant,
including behind a read already made.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.cba import CreditBasedArbiter
from repro.core.credit import CreditBank
from repro.core.hcba import budget_cap_parameters, heterogeneous_share_parameters
from repro.sim.config import CBAParameters
from repro.sim.trace import TraceRecorder


@st.composite
def cba_parameters(draw):
    """Homogeneous CBA, H-CBA replenish shares, or H-CBA caps above full."""
    num_cores = draw(st.integers(min_value=2, max_value=5))
    max_latency = draw(st.integers(min_value=1, max_value=24))
    favoured = draw(st.integers(min_value=0, max_value=num_cores - 1))
    variant = draw(st.sampled_from(["homogeneous", "shares", "cap"]))
    if variant == "shares":
        params = heterogeneous_share_parameters(num_cores, max_latency, favoured)
    elif variant == "cap":
        multiplier = draw(st.integers(min_value=1, max_value=3))
        params = budget_cap_parameters(num_cores, max_latency, favoured, multiplier)
    else:
        params = CBAParameters(max_latency=max_latency, num_cores=num_cores)
    initial = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=params.scale * 3)))
    if initial is None:
        return params
    return CBAParameters(
        max_latency=params.max_latency,
        num_cores=params.num_cores,
        replenish_shares=params.replenish_shares,
        budget_caps=params.budget_caps,
        initial_budget=initial,
    )


def _stepped_timeline(params, events):
    """Step the reference through ``events``; returns the grants as
    ``(core, cycle, duration)``, the holder of every cycle and the reference
    state ``(balance, replenished, drained)`` per core after every cycle."""
    reference = CreditBank(params)
    states = [[(a.balance, a.total_replenished, a.total_drained) for a in reference.accounts]]
    holders: list[int | None] = []
    grants = []
    for kind, core, length in events:
        holder = None
        if kind == "grant":
            holder = core % params.num_cores
            grants.append((holder, len(holders), length))
        for _ in range(length):
            reference.step(holder)
            holders.append(holder)
            states.append(
                [(a.balance, a.total_replenished, a.total_drained) for a in reference.accounts]
            )
    return grants, holders, states, reference


def _reference_wait(params, state, core):
    balance = state[core][0]
    deficit = params.scaled_full_budget - balance
    return 0 if deficit <= 0 else -(-deficit // params.share_for(core))


timelines = st.lists(
    st.tuples(
        st.sampled_from(["grant", "idle"]),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=60),
    ),
    min_size=1,
    max_size=25,
)


@given(cba_parameters(), timelines, st.data())
@settings(max_examples=150, deadline=None)
def test_anchored_reads_match_stepping(params, events, data):
    events = [
        (kind, core, min(length, params.max_latency) if kind == "grant" else length)
        for kind, core, length in events
    ]
    grants, holders, states, _ = _stepped_timeline(params, events)
    full = params.scaled_full_budget
    bank = CreditBank(params)
    floor = 0
    boundaries = [cycle for _, cycle, _ in grants] + [len(holders)]
    for index, now in enumerate(boundaries):
        # Read at random cycles between the latest grant and now, in any
        # order: the closed forms do not depend on earlier reads.
        cycles = data.draw(
            st.lists(st.integers(min_value=floor, max_value=now), min_size=1, max_size=8),
            label="reads",
        )
        for cycle in cycles:
            state = states[cycle]
            for core in range(params.num_cores):
                balance, replenished, drained = state[core]
                assert bank.balance(core, cycle) == balance
                assert bank.totals(core, cycle) == (replenished, drained)
                assert bank.eligible(core, cycle) == (balance >= full)
            assert bank.balances(cycle) == [s[0] for s in state]
            assert bank.eligible_cores(cycle) == [
                core for core in range(params.num_cores) if state[core][0] >= full
            ]
            holder = holders[cycle] if cycle < len(holders) else None
            idle = [core for core in range(params.num_cores) if core != holder]
            for core in idle:
                wait = 0 if bank.eligible(core, cycle) else bank.eligible_from[core] - cycle
                assert wait == _reference_wait(params, state, core)
        if index < len(grants):
            core, cycle, duration = grants[index]
            bank.grant(core, cycle, duration)
            floor = cycle


@given(cba_parameters(), timelines)
@settings(max_examples=100, deadline=None)
def test_refill_events_are_the_eligible_set_changes(params, events):
    """``cba.refill`` records, at cycle ``c``, every change of the eligible
    set the stepped update of cycle ``c`` makes — computed from the anchors,
    not polled."""
    events = [
        (kind, core, min(length, params.max_latency) if kind == "grant" else length)
        for kind, core, length in events
    ]
    grants, holders, states, _ = _stepped_timeline(params, events)
    full = params.scaled_full_budget

    def eligible_at(cycle):
        return [core for core in range(params.num_cores) if states[cycle][core][0] >= full]

    expected = []
    traced = eligible_at(0)
    for cycle in range(len(holders)):
        after = eligible_at(cycle + 1)
        if after != traced:
            traced = after
            expected.append((cycle, after, [s[0] for s in states[cycle + 1]]))

    recorder = TraceRecorder(kinds=["cba.refill"])
    cba = CreditBasedArbiter(RoundRobinArbiter(params.num_cores), params)
    cba.attach_trace(recorder)
    for core, cycle, duration in grants:
        cba.on_grant(core, duration, cycle)
    cba.sync_trace(len(holders))
    recorded = [
        (event.cycle, event.payload["eligible"], event.payload["balances"])
        for event in recorder.events
    ]
    assert recorded == expected


@given(cba_parameters(), st.integers(min_value=0, max_value=60), st.data())
@settings(max_examples=100, deadline=None)
def test_blocked_accounting_splits_at_the_first_refill(params, span, data):
    """A catch-up over an idle window counts blocked cycles exactly up to
    the first requestor's refill, as per-cycle arbitration would."""
    start = data.draw(st.integers(min_value=0, max_value=40), label="start")
    requestors = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=params.num_cores - 1),
            min_size=1,
            max_size=params.num_cores,
            unique=True,
        ),
        label="requestors",
    )
    stepped = CreditBasedArbiter(RoundRobinArbiter(params.num_cores), params)
    bulk = CreditBasedArbiter(RoundRobinArbiter(params.num_cores), params)
    for core in requestors:
        balance = data.draw(
            st.integers(min_value=0, max_value=params.scaled_full_budget),
            label=f"balance[{core}]",
        )
        for arbiter in (stepped, bulk):
            arbiter.set_initial_budget(core, balance, cycle=start)
    for cycle in range(start, start + span):
        blocked = not any(stepped.credits.eligible(core, cycle) for core in requestors)
        before = stepped.blocked_cycles
        choice = stepped.arbitrate(sorted(requestors), cycle)
        assert (choice is None) == blocked
        assert stepped.blocked_cycles == before + blocked
    bulk.advance_cycles(start, span, None, sorted(requestors))
    assert bulk.blocked_cycles == stepped.blocked_cycles
