"""Signal-level (RTL-like) model of the CBA arbiter — Table I of the paper.

The FPGA implementation is described in terms of a handful of per-core
signals; this module reproduces them one-to-one so that their cycle-by-cycle
behaviour can be inspected, tested and printed:

===========  ==========================================  ====================
Signal       Every cycle                                  When using the bus
===========  ==========================================  ====================
``BUDGi``    ``min(BUDGi + 1, 224)``                      ``BUDGi - 4``
``REQ1``     set when the TuA has a request ready         (same)
``REQ2..4``  WCET mode: always 1; operation: when ready   (same)
``COMP2..4`` WCET mode: set when ``BUDGi == 224`` and      cleared when core i
             ``REQ1 == 1``; operation mode: always 1      is granted
===========  ==========================================  ====================

(224 = ``N * MaxL`` with the paper's ``N = 4`` cores and ``MaxL = 56``; the
budget counters are 8 bits wide in hardware.  The paper's Table I prints
"228 (56x4)"; the product is 224, which is what the model uses.)

The model is deliberately standalone — it does not require the simulation
kernel — because its purpose is to mirror the RTL description closely enough
that the per-cycle signal table can be regenerated and checked.  It is also
the reference of the production :class:`repro.core.cba.CreditBasedArbiter`:
the tests drive both in lockstep and compare every grant and every
``BUDGi``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arbiters.base import Arbiter
from ..arbiters.round_robin import RoundRobinArbiter
from ..sim.errors import ConfigurationError
from .wcet_mode import CompeteGate, OperatingMode

__all__ = ["SignalSnapshot", "ArbiterSignalModel"]


@dataclass(frozen=True)
class SignalSnapshot:
    """The visible signal state at the end of one cycle."""

    cycle: int
    budgets: tuple[int, ...]
    requests: tuple[bool, ...]
    competes: tuple[bool, ...]
    granted: int | None
    bus_holder: int | None
    tua_waiting: bool

    def as_row(self) -> dict[str, object]:
        """Flatten into a dictionary, convenient for printing signal tables."""
        row: dict[str, object] = {"cycle": self.cycle}
        for core, budget in enumerate(self.budgets):
            row[f"BUDG{core + 1}"] = budget
        for core, req in enumerate(self.requests):
            row[f"REQ{core + 1}"] = int(req)
        for core, comp in enumerate(self.competes):
            row[f"COMP{core + 1}"] = int(comp)
        row["granted"] = "-" if self.granted is None else self.granted + 1
        row["holder"] = "-" if self.bus_holder is None else self.bus_holder + 1
        return row


class ArbiterSignalModel:
    """Cycle-steppable model of the CBA arbiter signals (Table I)."""

    def __init__(
        self,
        num_cores: int = 4,
        max_latency: int = 56,
        mode: OperatingMode = OperatingMode.WCET_ESTIMATION,
        tua_core: int = 0,
        tua_request_duration: int = 6,
        base_arbiter: Arbiter | None = None,
        tua_initial_budget: int | None = 0,
    ) -> None:
        """Create the signal model.

        Parameters
        ----------
        tua_core:
            Index of the core running the task under analysis (core 1 in the
            paper, index 0 here).
        tua_request_duration:
            Bus hold time of the TuA's requests (the illustrative L2-hit-like
            short request; any value in ``[1, max_latency]`` is accepted).
        base_arbiter:
            Policy applied among eligible cores; defaults to round-robin,
            which keeps signal traces deterministic for tests and tables.
        tua_initial_budget:
            Scaled initial budget of the TuA.  The paper starts the TuA with
            zero budget at analysis time; pass ``None`` for a full budget.
        """
        if num_cores < 2:
            raise ConfigurationError("the signal model needs at least two cores")
        if not 0 <= tua_core < num_cores:
            raise ConfigurationError("tua_core out of range")
        if not 1 <= tua_request_duration <= max_latency:
            raise ConfigurationError("TuA request duration must be in [1, MaxL]")
        self.num_cores = num_cores
        self.max_latency = max_latency
        self.mode = mode
        self.tua_core = tua_core
        self.tua_request_duration = tua_request_duration
        self.full_budget = num_cores * max_latency
        self.drain = num_cores
        self.base_arbiter = (
            base_arbiter if base_arbiter is not None else RoundRobinArbiter(num_cores)
        )
        if self.base_arbiter.num_masters != num_cores:
            raise ConfigurationError("base arbiter size does not match the core count")
        self.budgets = [self.full_budget] * num_cores
        if tua_initial_budget is not None:
            if not 0 <= tua_initial_budget <= self.full_budget:
                raise ConfigurationError("TuA initial budget outside [0, full budget]")
            self.budgets[tua_core] = tua_initial_budget
        self.gates = [
            CompeteGate(mode=mode, compete=(mode is OperatingMode.OPERATION))
            for _ in range(num_cores)
        ]
        # The TuA has no COMP gating (Table I marks COMP1 as not applicable).
        self.gates[tua_core].compete = True
        self.cycle = 0
        self.bus_holder: int | None = None
        self._release_cycle = 0
        self.history: list[SignalSnapshot] = []
        # Accounting for experiments.
        self.grants = [0] * num_cores
        self.busy_cycles = [0] * num_cores
        self.tua_completed_requests = 0
        self.tua_wait_cycles = 0

    # ------------------------------------------------------------------
    # Per-cycle step
    # ------------------------------------------------------------------
    def step(
        self,
        tua_request_ready: bool,
        contender_requests: list[bool] | None = None,
    ) -> SignalSnapshot:
        """Advance one cycle.

        Parameters
        ----------
        tua_request_ready:
            Whether the task under analysis has a request pending this cycle
            (drives ``REQ1``).
        contender_requests:
            Operation-mode request lines of the other cores (ignored in
            WCET-estimation mode, where ``REQ2..4`` are hardwired to 1).
        """
        requests = self._request_lines(tua_request_ready, contender_requests)
        competes = self._update_compete_bits(requests)
        granted = None

        # Bus release happens at the boundary before arbitration, so a new
        # transaction can start the cycle after the previous one finishes.
        if self.bus_holder is not None and self.cycle >= self._release_cycle:
            if self.bus_holder == self.tua_core:
                self.tua_completed_requests += 1
            self.bus_holder = None

        if self.bus_holder is None:
            eligible = [
                core
                for core in range(self.num_cores)
                if requests[core]
                and self.budgets[core] >= self.full_budget
                and (core == self.tua_core or competes[core])
            ]
            if eligible:
                granted = self.base_arbiter.arbitrate(eligible, self.cycle)
            if granted is not None:
                duration = (
                    self.tua_request_duration
                    if granted == self.tua_core
                    else self.max_latency
                )
                self.base_arbiter.on_grant(granted, duration, self.cycle)
                self.bus_holder = granted
                self._release_cycle = self.cycle + duration
                self.grants[granted] += 1
                self.gates[granted].on_granted()

        if tua_request_ready and self.bus_holder != self.tua_core:
            self.tua_wait_cycles += 1

        # Budget update (Table I): +1 saturating for everyone, -N for the
        # core using the bus this cycle.
        for core in range(self.num_cores):
            self.budgets[core] = min(self.budgets[core] + 1, self.full_budget)
        if self.bus_holder is not None:
            self.budgets[self.bus_holder] = max(
                0, self.budgets[self.bus_holder] - self.drain
            )
            self.busy_cycles[self.bus_holder] += 1

        snapshot = SignalSnapshot(
            cycle=self.cycle,
            budgets=tuple(self.budgets),
            requests=tuple(requests),
            competes=tuple(g.compete for g in self.gates),
            granted=granted,
            bus_holder=self.bus_holder,
            tua_waiting=tua_request_ready and self.bus_holder != self.tua_core,
        )
        self.history.append(snapshot)
        self.cycle += 1
        return snapshot

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _request_lines(
        self, tua_request_ready: bool, contender_requests: list[bool] | None
    ) -> list[bool]:
        requests = [False] * self.num_cores
        requests[self.tua_core] = tua_request_ready
        for core in range(self.num_cores):
            if core == self.tua_core:
                continue
            if self.mode is OperatingMode.WCET_ESTIMATION:
                requests[core] = True
            else:
                requests[core] = (
                    bool(contender_requests[core])
                    if contender_requests is not None
                    else False
                )
        return requests

    def _update_compete_bits(self, requests: list[bool]) -> list[bool]:
        tua_ready = requests[self.tua_core]
        competes = []
        for core in range(self.num_cores):
            if core == self.tua_core:
                competes.append(True)
                continue
            gate = self.gates[core]
            gate.update(
                budget_full=self.budgets[core] >= self.full_budget,
                tua_request_ready=tua_ready,
            )
            competes.append(gate.compete)
        return competes

    # ------------------------------------------------------------------
    # Convenience drivers
    # ------------------------------------------------------------------
    def run_tua_requests(
        self, num_requests: int, gap_cycles: int = 0, max_cycles: int = 1_000_000
    ) -> int:
        """Drive the model until the TuA completes ``num_requests`` requests.

        The TuA asserts a request, waits for it to complete, then waits
        ``gap_cycles`` before the next one.  Returns the number of cycles the
        whole sequence took — the quantity MBPTA measures.
        """
        completed_target = self.tua_completed_requests + num_requests
        gap_remaining = 0
        start_cycle = self.cycle
        while self.tua_completed_requests < completed_target:
            if self.cycle - start_cycle > max_cycles:
                raise RuntimeError("signal model did not converge within max_cycles")
            tua_busy = self.bus_holder == self.tua_core
            if gap_remaining > 0 and not tua_busy:
                gap_remaining -= 1
                self.step(tua_request_ready=False)
                continue
            before = self.tua_completed_requests
            self.step(tua_request_ready=not tua_busy)
            if self.tua_completed_requests > before:
                gap_remaining = gap_cycles
        return self.cycle - start_cycle

    def signal_table(self, first: int = 0, last: int | None = None) -> list[dict[str, object]]:
        """Rows of the observed signal table between cycles ``first`` and ``last``."""
        return [
            snap.as_row()
            for snap in self.history
            if snap.cycle >= first and (last is None or snap.cycle < last)
        ]
