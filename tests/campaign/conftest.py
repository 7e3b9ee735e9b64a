"""Fault injection for the campaign tests.

:class:`FaultyExecutor` is the real :class:`ParallelExecutor` over a process
pool whose ``submit`` swaps a planned job's first submissions for a stdlib
call that crashes the worker (``os._exit``), fails (``1 / 0``) or hangs it
(``time.sleep``).  Stdlib callables pickle by reference, so no test module
has to be importable in a worker.  The pool keeps the plan in the parent, so
a bystander charged an attempt by a pool break cannot move a planned fault,
and a fault that such a break killed before it acted fires again on the
job's next submission.

:class:`CorruptingStore` writes a garbage line after its first put, which is
never the trailing line once a second result is appended (a trailing torn
line is recovered silently, not quarantined).
"""

from __future__ import annotations

import operator
import os
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import pytest

from repro.campaign.executor import ParallelExecutor
from repro.campaign.jobs import run_job
from repro.campaign.store import ArtifactStore

CRASH = (os._exit, 17)
FAIL = (operator.truediv, 1, 0)


def hang(job_timeout: float) -> tuple:
    """A hang only the job deadline can end, yet finite (10x the budget), so a
    broken deadline path fails its test instead of wedging the suite."""
    return (time.sleep, 10 * job_timeout)


def _lost(call: tuple, future, submitted: float) -> bool:
    """Whether a pool break elsewhere killed a fired fault before it acted."""
    if future.cancelled():
        return True
    if call[0] is time.sleep:  # a hang acts by outliving its deadline
        return time.monotonic() - submitted < call[1] / 10
    if call is FAIL:
        return not (future.done() and isinstance(future.exception(), ZeroDivisionError))
    return False  # a crash acts at once


class _FaultyPool(ProcessPoolExecutor):
    def __init__(self, executor: "FaultyExecutor") -> None:
        super().__init__(max_workers=executor.workers)
        self._plan = executor.plan
        self._fired = executor.fired

    def submit(self, fn, /, *args, **kwargs):
        if fn is not run_job:
            return super().submit(fn, *args, **kwargs)
        job_id = args[0].job_id
        planned = self._plan.setdefault(job_id, [])
        last = self._fired.pop(job_id, None)
        if last is not None and _lost(*last):
            planned.insert(0, last[0])
        if not planned:
            return super().submit(fn, *args, **kwargs)
        call = planned[0]
        future = super().submit(*call)  # raises on a broken pool: keep the call
        planned.pop(0)
        self._fired[job_id] = (call, future, time.monotonic())
        return future


class FaultyExecutor(ParallelExecutor):
    """``plan`` maps a job ID to the calls replacing its first submissions;
    a call that a pool break elsewhere killed before it acted fires again."""

    def __init__(self, max_workers: int, plan: dict[str, list[tuple]], **kwargs) -> None:
        super().__init__(max_workers, **kwargs)
        self.plan = {job_id: list(calls) for job_id, calls in plan.items()}
        self.fired: dict[str, tuple] = {}

    @property
    def injected_all(self) -> bool:
        return not any(self.plan.values())

    def _build_pool(self):
        return _FaultyPool(self)


class CorruptingStore(ArtifactStore):
    injected_lines = 0

    def put(self, result) -> None:
        super().put(result)
        if not self.injected_lines:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write('{"job_id": "injected-corruption", "samples": [0.5\n')
            self.injected_lines = 1


@pytest.fixture
def faults() -> SimpleNamespace:
    """The fault-injection kit: ``Executor``, ``Store``, ``CRASH``, ``FAIL``
    and ``hang(job_timeout)``."""
    return SimpleNamespace(
        Executor=FaultyExecutor, Store=CorruptingStore, CRASH=CRASH, FAIL=FAIL, hang=hang
    )
