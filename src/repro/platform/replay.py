"""Isolation under CBA by replay.

A task running alone on a bus whose base policy grants a lone requestor in
the cycle it asks sees no wait without CBA: every request is granted at its
issue.  Under CBA the same task only adds the budget-recovery stalls of the
credit filter.  Nothing else changes — the L2 is private to the task, its
caches see the same access sequence, and every transaction holds the bus
for the same number of cycles — so each stall shifts the rest of the run by
its length, and the CBA run follows from the grant log of the run without
CBA:

* the request the source granted at ``g`` is issued at ``g + shift``, where
  ``shift`` is the sum of the stalls before it;
* it is granted when its core's budget is full again
  (:attr:`~repro.core.credit.CreditBank.eligible_from`), or at issue;
* its hold lasts as long as in the source and is settled by the production
  :class:`~repro.core.credit.CreditBank`, so shares, caps and initial
  budgets need no formula of their own.

:func:`cba_waits` is that replay.  The campaign derives CBA isolation jobs
with it (:func:`repro.campaign.jobs.derive_isolation`), and the tier-1
oracle and the fuzzer's ``closed_form`` invariant compare it with simulated
runs.  It holds when :func:`replayable` admits the platform and the source
granted every request at issue (:func:`grant_log` returns ``None``
otherwise): a store buffer overlaps a store with later work, and TDMA delays
a lone requestor to its slot, so neither is a pure shift.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from ..core.credit import CreditBank
from ..sim.config import CBAParameters, PlatformConfig

__all__ = ["REPLAYABLE_POLICIES", "cba_waits", "grant_log", "replayable"]

#: Base policies that grant a lone requestor in the cycle it asks.
REPLAYABLE_POLICIES = frozenset({"random_permutations", "round_robin", "fifo"})


def replayable(config: PlatformConfig) -> bool:
    """Whether a lone task's run on ``config`` under CBA follows by replay
    from its run without CBA (the platform side of the guard)."""
    return config.arbitration in REPLAYABLE_POLICIES and config.store_buffer_entries == 0


def grant_log(holder_log: Sequence[int], master: int, latencies: Sequence[int]) -> array | None:
    """``master``'s holds as a flat ``grant, release`` sequence, from a bus
    :attr:`~repro.bus.bus.SharedBus.holder_log` of ``cycle, holder`` pairs.

    ``latencies`` are the master's per-request latencies (issue to release,
    :attr:`~repro.cpu.counters.CoreCounters.request_latencies`), in grant
    order.  Returns ``None`` unless every request was granted at its issue
    (``release - latency == grant``), the condition the replay needs.
    """
    log = array("q")
    holding = False
    for index in range(0, len(holder_log), 2):
        cycle = holder_log[index]
        if holding:
            log.append(cycle)
        holding = holder_log[index + 1] == master
        if holding:
            log.append(cycle)
    if holding or len(log) != 2 * len(latencies):
        return None
    for index, latency in enumerate(latencies):
        if log[2 * index + 1] - latency != log[2 * index]:
            return None
    return log


def cba_waits(log: Sequence[int], params: CBAParameters, master: int) -> array:
    """The cycles CBA delays each request of a ``grant, release`` log.

    ``log`` is a run without CBA that granted every request at its issue
    (:func:`grant_log`); the result holds one wait per request of the same
    run under CBA with ``params``, and their sum is how much later that run
    ends.
    """
    bank = CreditBank(params)
    eligible_from = bank.eligible_from
    grant = bank.grant
    waits = array("q")
    shift = 0
    for index in range(0, len(log), 2):
        source = log[index]
        issue = source + shift
        granted = eligible_from[master]
        if granted > issue:
            waits.append(granted - issue)
            shift += granted - issue
        else:
            waits.append(0)
            granted = issue
        grant(master, granted, log[index + 1] - source)
    return waits
