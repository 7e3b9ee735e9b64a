"""Credit-Based Arbitration — the paper's primary contribution.

This package implements the CBA mechanism proposed in the paper: the per-core
credit accounts (Equation 1), the arbitration filter that wraps any baseline
policy, the heterogeneous H-CBA variants, the signal-level model of the FPGA
arbiter (Table I) and the analytical contention bounds of Section II.
"""

from .bounds import (
    ContentionScenario,
    cycle_fair_execution_time,
    cycle_fair_wait,
    request_fair_execution_time,
    request_fair_wait,
    slowdown,
    worst_case_wait_round_robin,
    worst_case_wait_tdma,
)
from .cba import CreditBasedArbiter
from .credit import CreditAccount, CreditBank
from .hcba import (
    bandwidth_fractions,
    budget_cap_parameters,
    heterogeneous_share_parameters,
)
from .signals import ArbiterSignalModel, SignalSnapshot
from .wcet_mode import CompeteGate, OperatingMode

__all__ = [
    "CreditAccount",
    "CreditBank",
    "CreditBasedArbiter",
    "heterogeneous_share_parameters",
    "budget_cap_parameters",
    "bandwidth_fractions",
    "ArbiterSignalModel",
    "SignalSnapshot",
    "CompeteGate",
    "OperatingMode",
    "ContentionScenario",
    "request_fair_wait",
    "cycle_fair_wait",
    "request_fair_execution_time",
    "cycle_fair_execution_time",
    "slowdown",
    "worst_case_wait_round_robin",
    "worst_case_wait_tdma",
]
