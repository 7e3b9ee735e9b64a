"""Isolation under CBA, maximum contention and WCET estimation by replay.

A task running alone on a bus whose base policy grants a lone requestor in
the cycle it asks sees no wait without CBA: every request is granted at its
issue.  That run's grant log (:func:`grant_log`) is the task's own request
stream — when each request issues after the previous release, how long it
holds the bus, and how long the task computes after its last release —
and on the platforms admitted here the stream does not depend on the bus:
the L2 is private to the task, its caches see the same access sequence,
and every transaction holds the bus for the same number of cycles.  Only
the waits for the bus change, so other runs of the same task follow from
the log.

**Under CBA, alone** (:func:`cba_waits`), the task only adds the
budget-recovery stalls of the credit filter, and each stall shifts the rest
of the run by its length:

* the request the source granted at ``g`` is issued at ``g + shift``, where
  ``shift`` is the sum of the stalls before it;
* it is granted when its core's budget is full again
  (:attr:`~repro.core.credit.CreditBank.eligible_from`), or at issue;
* its hold lasts as long as in the source and is settled by the production
  :class:`~repro.core.credit.CreditBank`, so shares, caps and initial
  budgets need no formula of their own.

It holds when :func:`replayable` admits the platform and the source granted
every request at issue (:func:`grant_log` returns ``None`` otherwise): a
store buffer overlaps a store with later work, and TDMA delays a lone
requestor to its slot, so neither is a pure shift.

**Against contenders** (:func:`bus_replay`), the stream is replayed
through the production arbiter, with or without CBA, against greedy
contenders that re-issue the cycle after each completion, or against
Table I's WCET-estimation-mode contenders, which compete only when their
budget is full while the task has a request ready.  It holds when
:func:`bus_replayable` admits the platform: on top of :func:`replayable`,
fixed DRAM, so that a contender's atomic transaction (which bypasses the
L2) always holds the bus as long and leaves the task's memory as it finds
it.  Banked DRAM keeps rows open across masters.

The campaign derives CBA isolation, maximum-contention and
WCET-estimation jobs with these replays
(:func:`repro.campaign.jobs.derive_job`); for the last two it synthesises
the lone run when the campaign does not simulate one anyway.  The tier-1
oracles and the fuzzer's ``closed_form`` and ``contention_replay``
invariants compare the replays with simulated runs, and the
``wcet_dominates`` invariant compares the two contender rules.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Sequence

from ..arbiters.base import Arbiter
from ..arbiters.registry import create_arbiter
from ..core.cba import CreditBasedArbiter
from ..core.credit import CreditBank
from ..sim.config import CBAParameters, PlatformConfig
from ..sim.rng import RandomStreams

__all__ = [
    "REPLAYABLE_POLICIES",
    "ContentionReplay",
    "bus_replay",
    "bus_replayable",
    "cba_waits",
    "grant_log",
    "replayable",
]

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


def bus_replayable(config: PlatformConfig) -> bool:
    """Whether a task's run against greedy contenders on ``config`` follows
    by replay from its lone run without CBA (the platform side of the
    guard): :func:`replayable`, and fixed DRAM, so that each contender's
    atomic hold is one fixed duration and leaves the task's memory as it
    finds it."""
    return replayable(config) and config.memory.model == "fixed"


@dataclass(frozen=True)
class ContentionReplay:
    """What :func:`bus_replay` derives of a run against contenders."""

    #: How much later the task's last hold ends than in the source; its
    #: execution and total cycles move by as much.
    shift: int
    total_cycles: int
    #: The task's share of the bus cycles granted before the run ends.
    tua_bandwidth_share: float
    #: Contender requests completed before the run ends.
    contender_requests: int


def _line_up(cycle: int, line_from: int, line_until: int, line_next: int) -> int:
    """The first cycle from ``cycle`` on at which the task's request line is
    up, as far as the replay knows it: from ``line_from`` (the issue of the
    task's current or next request) through ``line_until`` (that request's
    release), then from ``line_next`` (the issue after that release).  A
    cycle not known yet, or never reached, is the cycle budget."""
    first = cycle if cycle > line_from else line_from
    if first <= line_until:
        return first
    return cycle if cycle > line_next else line_next


def bus_replay(
    log: Sequence[int],
    config: PlatformConfig,
    source_total: int,
    *,
    seed: int,
    run_index: int,
    tua_core: int,
    max_cycles: int,
    wcet_mode: bool = False,
) -> ContentionReplay | None:
    """The run of a task against contenders, replayed from its lone run
    without CBA on the same platform.

    ``log`` is that run's ``grant, release`` log (:func:`grant_log`) and
    ``source_total`` its total cycles.  The task keeps its own stream: each
    request issues its source gap after the previous release (the first at
    its source grant) and holds the bus as long as in the source, and the
    run ends the source's tail after the last release.  Every other core is
    a contender that holds the bus for an atomic transaction when granted:

    * greedy (maximum contention): it issues at cycle 0 and the cycle after
      each completion;
    * with ``wcet_mode``, Table I's WCET-estimation-mode contender: its grant
      clears its COMP bit, which sets again at the first cycle its budget is
      full while the task's request line is up, and it issues at the later
      of that cycle and the one after its completion.  The cores tick before
      the contenders, so a contender sees the task's line from the task's
      issue cycle through its release cycle.  The task starts with a zero
      budget under CBA.

    The grants come from the production arbiter, built as the platform
    builds it and driven the way :class:`~repro.bus.bus.SharedBus` drives
    it: requests reach :meth:`~repro.arbiters.base.Arbiter.on_request` in
    issue order (the task first within a cycle, since its core ticks before
    the contenders), and an idle bus arbitrates among the pending requests
    at the first cycle one is pending, then at the earlier of the arbiter's
    :meth:`~repro.arbiters.base.Arbiter.next_grant_opportunity` and the next
    issue until it grants.

    ``None`` when the run would not end before ``max_cycles`` (the
    simulation is truncated there).  Holds when :func:`bus_replayable`
    admits ``config``.
    """
    cores = config.num_cores
    arbiter: Arbiter = create_arbiter(
        config.arbitration,
        cores,
        rng=RandomStreams(seed=seed, run_index=run_index).stream("arbiter"),
        slot_cycles=config.bus_timings.max_latency,
    )
    credits: CreditBank | None = None
    if config.use_cba:
        cba = CreditBasedArbiter(arbiter, config.cba)
        if wcet_mode:
            cba.set_initial_budget(tua_core, 0)
        arbiter, credits = cba, cba.credits
    on_request = arbiter.on_request
    arbitrate = arbiter.arbitrate
    on_grant = arbiter.on_grant
    next_grant_opportunity = arbiter.next_grant_opportunity
    contender_hold = config.bus_timings.atomic()
    requests = len(log) // 2
    contenders = [core for core in range(cores) if core != tua_core]
    # Masters in admission order for equal issues.
    order = [tua_core, *contenders]
    # Any cycle at or past the budget ends the replay, so the budget also
    # stands for "never" and "not known yet".
    never = max_cycles

    # The task's request line (see ``_line_up``).
    line_from = log[0] if requests else never
    line_until = line_next = never
    # Each master's next request while it is not yet admitted: its issue
    # cycle, or ``never`` while it is pending or held (for the task once its
    # stream is done, for a WCET-mode contender while the line stays down).
    issues = [0] * cores
    issues[tua_core] = line_from
    # WCET mode: the first cycle each contender waiting for the task's line
    # could set COMP (its budget full), or ``never`` when it is not waiting.
    waiting = [never] * cores
    if wcet_mode:
        for core in contenders:
            waiting[core] = 0 if credits is None else credits.eligible_from[core]
            issues[core] = _line_up(waiting[core], line_from, never, never)
    due = min(issues)
    requestors: list[int] = []
    served = 0
    end = never if requests else source_total
    free = tua_granted = granted = 0
    releases = array("q")
    while True:
        cycle = free if requestors or due < free else due
        # The idle bus from ``cycle`` on: admit, arbitrate, and if nothing
        # is granted wait for the arbiter's next opportunity or an issue.
        while True:
            if cycle >= end:
                break
            if due <= cycle:
                ready = [master for master in order if issues[master] <= cycle]
                ready.sort(key=issues.__getitem__)  # stable: ties keep ``order``
                for master in ready:
                    issue = issues[master]
                    on_request(master, issue)
                    if master == tua_core:
                        line_from, line_until = issue, never
                    else:
                        waiting[master] = never
                    issues[master] = never
                    insort(requestors, master)
                due = min(issues)
            choice = arbitrate(requestors, cycle)
            if choice is not None:
                break
            wake = next_grant_opportunity(requestors, cycle + 1)
            cycle = due if wake is None or due < wake else wake
        if cycle >= end:
            break
        requestors.remove(choice)
        if choice == tua_core:
            hold = log[2 * served + 1] - log[2 * served]
            tua_granted += hold
            served += 1
            free = cycle + hold
            if served < requests:
                issues[tua_core] = free + log[2 * served] - log[2 * served - 1]
            else:
                end = free + source_total - log[-1]
                if end >= never:
                    return None
            if wcet_mode:
                line_until, line_next = free, issues[tua_core]
                for core in contenders:
                    if waiting[core] < never:
                        issues[core] = _line_up(waiting[core], line_from, line_until, line_next)
        else:
            hold = contender_hold
            free = cycle + hold
            releases.append(free)
            issues[choice] = free + 1
        granted += hold
        on_grant(choice, hold, cycle)
        if wcet_mode and choice != tua_core:
            # The line rises during the hold only if the task is waiting
            # then, and it stays up past the hold: COMP sets if the budget
            # is full at that cycle (it can only fall during a hold).
            up = _line_up(cycle + 1, line_from, line_until, line_next)
            if up > free or not (credits is None or credits.eligible(choice, up)):
                ready_from = free + 1
                if credits is not None and credits.eligible_from[choice] > ready_from:
                    ready_from = credits.eligible_from[choice]
                waiting[choice] = ready_from
                issues[choice] = _line_up(ready_from, line_from, line_until, line_next)
        due = min(issues)
    if end >= never:
        return None
    return ContentionReplay(
        shift=end - source_total,
        total_cycles=end,
        tua_bandwidth_share=tua_granted / granted if granted else 0.0,
        contender_requests=bisect_left(releases, end),
    )
