"""Tests for the signal-level (Table I) arbiter model, and of the production
CBA arbiter against it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.arbiters.round_robin import RoundRobinArbiter
from repro.core.cba import CreditBasedArbiter
from repro.core.signals import ArbiterSignalModel
from repro.core.wcet_mode import CompeteGate, OperatingMode
from repro.sim.config import CBAParameters
from repro.sim.errors import ConfigurationError


def make_model(**kwargs):
    defaults = dict(
        num_cores=4,
        max_latency=56,
        mode=OperatingMode.WCET_ESTIMATION,
        tua_request_duration=6,
        tua_initial_budget=0,
    )
    defaults.update(kwargs)
    return ArbiterSignalModel(**defaults)


class TestConstruction:
    def test_paper_defaults(self):
        model = make_model()
        assert model.full_budget == 224
        assert model.drain == 4
        assert model.budgets[0] == 0  # TuA starts with zero budget at analysis
        assert model.budgets[1] == 224

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            make_model(num_cores=1)
        with pytest.raises(ConfigurationError):
            make_model(tua_core=9)
        with pytest.raises(ConfigurationError):
            make_model(tua_request_duration=0)
        with pytest.raises(ConfigurationError):
            make_model(tua_initial_budget=500)


class TestWCETModeSignals:
    def test_contender_req_lines_always_set(self):
        model = make_model()
        snap = model.step(tua_request_ready=False)
        assert snap.requests[1:] == (True, True, True)
        assert snap.requests[0] is False

    def test_comp_set_only_when_budget_full_and_tua_requests(self):
        model = make_model()
        # TuA not requesting: contenders must not compete.
        snap = model.step(tua_request_ready=False)
        assert snap.competes[1:] == (False, False, False)
        # TuA requesting and contender budgets full: COMP bits go up (the
        # contender granted in this very cycle has its bit cleared again).
        snap = model.step(tua_request_ready=True)
        for core in (1, 2, 3):
            if core == snap.granted:
                assert snap.competes[core] is False
            else:
                assert snap.competes[core] is True

    def test_comp_cleared_when_contender_granted(self):
        model = make_model()
        snap = model.step(tua_request_ready=True)
        granted = snap.granted
        assert granted in (1, 2, 3)  # the TuA has no budget yet
        assert snap.competes[granted] is False

    def test_granted_contender_holds_bus_for_maxl(self):
        model = make_model()
        first = model.step(tua_request_ready=True)
        holder = first.bus_holder
        for _ in range(55):
            snap = model.step(tua_request_ready=True)
            assert snap.bus_holder == holder
        snap = model.step(tua_request_ready=True)
        assert snap.bus_holder != holder or snap.bus_holder is None

    def test_tua_with_zero_budget_cannot_be_granted(self):
        model = make_model()
        snap = model.step(tua_request_ready=True)
        assert snap.granted != 0

    def test_tua_granted_once_budget_recovered_with_no_contention(self):
        model = ArbiterSignalModel(
            num_cores=4,
            mode=OperatingMode.OPERATION,
            tua_request_duration=6,
            tua_initial_budget=0,
        )
        granted_cycle = None
        for cycle in range(300):
            snap = model.step(tua_request_ready=True)
            if snap.granted == 0:
                granted_cycle = cycle
                break
        # With zero initial budget and +1 per cycle, the TuA needs 224 cycles.
        assert granted_cycle == 224


class TestBudgetRule:
    def test_budget_increments_saturate(self):
        model = make_model()
        for _ in range(500):
            model.step(tua_request_ready=False)
        assert model.budgets[0] == 224

    def test_holder_budget_follows_table1_update(self):
        model = make_model(tua_initial_budget=224)
        before = list(model.budgets)
        snap = model.step(tua_request_ready=True)
        holder = snap.bus_holder
        assert holder is not None
        expected = max(0, min(before[holder] + 1, model.full_budget) - model.drain)
        assert snap.budgets[holder] == expected


class TestOperationMode:
    def test_comp_bits_always_set(self):
        model = make_model(mode=OperatingMode.OPERATION, tua_initial_budget=None)
        snap = model.step(tua_request_ready=False, contender_requests=[False] * 4)
        assert all(snap.competes[1:])

    def test_contender_req_follows_actual_requests(self):
        model = make_model(mode=OperatingMode.OPERATION, tua_initial_budget=None)
        snap = model.step(
            tua_request_ready=False, contender_requests=[False, True, False, False]
        )
        assert snap.requests == (False, True, False, False)


class TestDrivers:
    def test_run_tua_requests_completes_and_counts(self):
        model = make_model(tua_initial_budget=224)
        cycles = model.run_tua_requests(5, gap_cycles=4)
        assert model.tua_completed_requests == 5
        assert cycles > 0
        assert len(model.history) == cycles

    def test_signal_table_rows_have_expected_columns(self):
        model = make_model()
        model.step(tua_request_ready=True)
        rows = model.signal_table()
        assert len(rows) == 1
        row = rows[0]
        for column in ("cycle", "BUDG1", "REQ1", "COMP4", "granted", "holder"):
            assert column in row


# ----------------------------------------------------------------------
# The production arbiter in lockstep with Table I
# ----------------------------------------------------------------------
LOCKSTEP_CYCLES = 2_000


@st.composite
def signal_configurations(draw):
    """``(N, MaxL, mode, TuA core, TuA hold, TuA initial budget)``."""
    num_cores = draw(st.integers(min_value=2, max_value=6))
    max_latency = draw(st.integers(min_value=1, max_value=60))
    mode = draw(st.sampled_from(list(OperatingMode)))
    tua_core = draw(st.integers(min_value=0, max_value=num_cores - 1))
    duration = draw(st.integers(min_value=1, max_value=max_latency))
    full = num_cores * max_latency
    initial = draw(
        st.one_of(st.none(), st.just(0), st.integers(min_value=0, max_value=full))
    )
    return num_cores, max_latency, mode, tua_core, duration, initial


@given(
    signal_configurations(),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([0.1, 0.5, 0.9, 1.0]),
    st.sampled_from([0.05, 0.3, 0.8]),
)
@settings(max_examples=60, deadline=None)
def test_production_arbiter_matches_table1_cycle_by_cycle(
    config, seed, tua_rate, contender_rate
):
    """The production :class:`CreditBasedArbiter` (round-robin base, its
    anchored :class:`CreditBank`) and the Table I signal model see the same
    random request lines, one cycle at a time.  On the production side one
    :class:`CompeteGate` per contender is fed by ``credits.eligible``, and
    ``arbitrate``/``on_grant`` run when the bus is free.  Every cycle the
    grant and every ``BUDGi`` must agree (the model's snapshot holds the
    budgets after the cycle's update, i.e. the bank's read at ``c + 1``)."""
    num_cores, max_latency, mode, tua, duration, initial = config
    model = ArbiterSignalModel(
        num_cores=num_cores,
        max_latency=max_latency,
        mode=mode,
        tua_core=tua,
        tua_request_duration=duration,
        tua_initial_budget=initial,
    )
    cba = CreditBasedArbiter(
        RoundRobinArbiter(num_cores),
        CBAParameters(max_latency=max_latency, num_cores=num_cores),
    )
    if initial is not None:
        cba.set_initial_budget(tua, initial)
    wcet = mode is OperatingMode.WCET_ESTIMATION
    gates = [CompeteGate(mode=mode, compete=not wcet) for _ in range(num_cores)]
    rng = random.Random(seed)
    release = 0
    for cycle in range(LOCKSTEP_CYCLES):
        tua_ready = rng.random() < tua_rate
        lines = [rng.random() < contender_rate for _ in range(num_cores)]
        snapshot = model.step(tua_ready, lines)

        requests = [wcet or line for line in lines]
        requests[tua] = tua_ready
        for core, gate in enumerate(gates):
            if core != tua:
                gate.update(
                    budget_full=cba.credits.eligible(core, cycle),
                    tua_request_ready=tua_ready,
                )
        granted = None
        if cycle >= release:
            requestors = [
                core
                for core in range(num_cores)
                if requests[core] and (core == tua or gates[core].compete)
            ]
            granted = cba.arbitrate(requestors, cycle)
            if granted is not None:
                hold = duration if granted == tua else max_latency
                cba.on_grant(granted, hold, cycle)
                gates[granted].on_granted()
                release = cycle + hold
        assert granted == snapshot.granted, cycle
        assert cba.budgets(cycle + 1) == list(snapshot.budgets), cycle
    assert sum(model.grants) > 0
