"""Equation 1 stepped one cycle at a time.

The anchored :class:`~repro.core.credit.CreditBank` is checked against the
Table I signal model (``test_signals.py``), which has neither H-CBA shares
nor budget caps above the full budget.  This loop is the reference for
those: every core gains its share, saturating at its cap, then the bus
holder pays the drain, floored at zero.
"""

from __future__ import annotations

import pytest


def equation1(params, holders, balances=None):
    """Scaled balances at every cycle boundary of a bus timeline.

    ``holders[c]`` holds the bus in cycle ``c`` (``None``: idle), and the
    timeline starts from ``balances`` (default: the initial budgets).
    Returns ``len(holders) + 1`` lists, the first being the start.
    """
    if balances is None:
        balances = [params.initial_for(core) for core in range(params.num_cores)]
    states = [list(balances)]
    for holder in holders:
        balances = [
            min(balance + params.share_for(core), params.cap_for(core))
            for core, balance in enumerate(balances)
        ]
        if holder is not None:
            balances[holder] -= min(params.drain_per_busy_cycle, balances[holder])
        states.append(balances)
    return states


@pytest.fixture(scope="session")
def stepped():
    """:func:`equation1`, the per-cycle reference of the credit bank."""
    return equation1
