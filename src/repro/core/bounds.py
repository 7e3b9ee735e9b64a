"""Analytical contention bounds.

Section II of the paper motivates CBA with a closed-form example: a task
under analysis (TuA) whose requests occupy the bus for 6 cycles competes
against three streaming contenders whose requests occupy it for 28 cycles.
Under any *request-fair* policy each TuA request waits for roughly one
contender request per contender (84 cycles), giving a 9.4x slowdown; under a
*cycle-fair* policy each TuA request waits only as long as the contenders are
entitled to in cycles (18 cycles here), giving a 2.8x slowdown.

This module provides those closed forms so experiments can compare simulated
behaviour against the analytical expectation, plus per-request worst-case
wait bounds for round-robin and TDMA.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ContentionScenario",
    "request_fair_wait",
    "cycle_fair_wait",
    "request_fair_execution_time",
    "cycle_fair_execution_time",
    "slowdown",
    "worst_case_wait_round_robin",
    "worst_case_wait_tdma",
]


@dataclass(frozen=True)
class ContentionScenario:
    """Parameters of the Section II illustrative example.

    Attributes
    ----------
    isolation_cycles:
        Execution time of the TuA in isolation.
    tua_requests:
        Number of bus requests the TuA issues.
    tua_request_cycles:
        Bus hold time of each TuA request.
    contender_request_cycles:
        Bus hold time of each contender request.
    num_cores:
        Total number of cores (TuA + contenders).
    """

    isolation_cycles: int = 10_000
    tua_requests: int = 1_000
    tua_request_cycles: int = 6
    contender_request_cycles: int = 28
    num_cores: int = 4

    @property
    def num_contenders(self) -> int:
        return self.num_cores - 1

    @property
    def compute_cycles(self) -> int:
        """Cycles the TuA spends off the bus in isolation."""
        return self.isolation_cycles - self.tua_requests * self.tua_request_cycles


def request_fair_wait(scenario: ContentionScenario) -> int:
    """Per-request wait under a request-fair (slot-fair) policy.

    Each TuA request waits for one maximum-duration contender request per
    contender: ``(N-1) * contender_request_cycles`` (84 in the paper).
    """
    return scenario.num_contenders * scenario.contender_request_cycles


def cycle_fair_wait(scenario: ContentionScenario) -> int:
    """Per-request wait under a cycle-fair policy such as CBA.

    The contenders together may only use as many bus cycles as the TuA does,
    so each TuA request of ``c`` cycles waits ``(N-1) * c`` cycles
    (18 in the paper).
    """
    return scenario.num_contenders * scenario.tua_request_cycles


def request_fair_execution_time(scenario: ContentionScenario) -> int:
    """Execution time of the TuA under a request-fair policy (Section II).

    ``(isolation - bus time) + requests * (request + wait)`` — 94,000 cycles
    with the paper's numbers.
    """
    per_request = scenario.tua_request_cycles + request_fair_wait(scenario)
    return scenario.compute_cycles + scenario.tua_requests * per_request


def cycle_fair_execution_time(scenario: ContentionScenario) -> int:
    """Execution time of the TuA under a cycle-fair policy — 28,000 cycles
    with the paper's numbers."""
    per_request = scenario.tua_request_cycles + cycle_fair_wait(scenario)
    return scenario.compute_cycles + scenario.tua_requests * per_request


def slowdown(contended_cycles: float, isolation_cycles: float) -> float:
    """Execution-time ratio contended / isolation."""
    if isolation_cycles <= 0:
        raise ValueError("isolation execution time must be positive")
    return contended_cycles / isolation_cycles


# ----------------------------------------------------------------------
# Per-request worst-case wait bounds
# ----------------------------------------------------------------------
def worst_case_wait_round_robin(num_cores: int, max_latency: int) -> int:
    """Worst-case grant delay of one request under round-robin.

    Every other core may be granted one maximum-length request first, plus
    the residual of a request already in flight: ``(N-1 + 1) * MaxL`` is the
    safe bound typically used; we return ``(N-1) * MaxL + (MaxL - 1)``.
    """
    return (num_cores - 1) * max_latency + (max_latency - 1)


def worst_case_wait_tdma(num_cores: int, slot_cycles: int) -> int:
    """Worst-case grant delay under TDMA with issue-at-slot-start semantics.

    The request may arrive just after its slot's start cycle and must wait a
    full round of the schedule: ``N * slot_cycles - 1``.
    """
    return num_cores * slot_cycles - 1

