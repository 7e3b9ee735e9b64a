"""The in-process retry protocol (serial executor and degraded endgame).

A failing scenario runner is registered in ``SCENARIO_RUNNERS`` for the
test's duration; jobs run in-process, so nothing is pickled.  The degraded
endgame is reached through the fault fixture's pool, whose crashing
submissions never run the runner in a worker, or through a runner that
kills the worker process it runs in (pool workers are forked, so they see
the registration).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.campaign.campaign import Campaign
from repro.campaign.executor import (
    MAX_POOL_REBUILDS,
    ParallelExecutor,
    SerialExecutor,
    WorkerCrashError,
)
from repro.campaign.jobs import SCENARIO_RUNNERS, RunOutcome, seed_block_jobs
from repro.campaign.store import ArtifactStore


class Flaky(RuntimeError):
    pass


def _register(monkeypatch, failures: dict[int, int]) -> dict[int, int]:
    """Register ``flaky``: run index ``i`` raises on its first
    ``failures[i]`` calls, then returns ``i``.  Returns the call counts."""
    calls: dict[int, int] = {}

    def runner(job, run_index):
        calls[run_index] = calls.get(run_index, 0) + 1
        if calls[run_index] <= failures.get(run_index, 0):
            raise Flaky(f"run {run_index}")
        return RunOutcome(value=float(run_index))

    monkeypatch.setitem(SCENARIO_RUNNERS, "flaky", runner)
    return calls


def _jobs():
    return seed_block_jobs("flaky", "flaky", seed=1, num_runs=3)


@pytest.mark.parametrize(("retries", "failures"), [(1, 1), (2, 1), (2, 2), (3, 3)])
def test_transient_failure_is_retried_at_once(monkeypatch, retries, failures):
    calls = _register(monkeypatch, {1: failures})

    def no_backoff(seconds):
        raise AssertionError("a retry must not sleep")

    monkeypatch.setattr(time, "sleep", no_backoff)
    executor = SerialExecutor(retries=retries)
    results = sorted(r.samples for r in executor.execute(_jobs()))
    assert results == [(0.0,), (1.0,), (2.0,)]
    assert calls == {0: 1, 1: failures + 1, 2: 1}
    assert executor.last_resilience.retries == failures
    assert not executor.last_resilience.failures


@pytest.mark.parametrize("retries", [1, 2, 3])
def test_poison_job_is_quarantined_after_its_last_attempt(monkeypatch, retries):
    calls = _register(monkeypatch, {1: 99})
    reported = []

    class Recorder:
        def __getattr__(self, name):
            return lambda *args, **kwargs: reported.append((name, *args))

    campaign = Campaign(executor=SerialExecutor(retries=retries), progress=Recorder())
    results = campaign.run(_jobs())
    assert sorted(r.samples for r in results.values()) == [(0.0,), (2.0,)]
    attempts = retries + 1
    assert calls[1] == attempts
    (failure,) = campaign.last_report.failures
    assert (failure.label, failure.kind, failure.attempt) == ("flaky", "exception", attempts)
    assert failure.message == "Flaky: run 1"
    retried = [entry for entry in reported if entry[0] == "retry"]
    assert retried == [
        ("retry", "flaky", attempt, attempts, "exception") for attempt in range(2, attempts + 1)
    ]
    assert ("quarantine", "flaky", attempts, "exception") in reported


def test_each_execute_call_reports_its_own_resilience(monkeypatch):
    _register(monkeypatch, {1: 1})
    executor = SerialExecutor(retries=1)
    list(executor.execute(_jobs()))
    assert executor.last_resilience.retries == 1
    list(executor.execute(_jobs()))  # run 1 has spent its failure
    assert executor.last_resilience.retries == 0


def test_retries_and_quarantine_reach_the_metrics_file(monkeypatch, tmp_path):
    _register(monkeypatch, {0: 1, 1: 99})
    path = tmp_path / "metrics.jsonl"
    Campaign(executor=SerialExecutor(retries=2), metrics_path=path).run(_jobs())
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    counters = {
        row["name"]: row["value"]
        for row in rows
        if row["type"] == "counter" and row["name"].startswith("campaign.")
    }
    assert counters["campaign.retries"] == 3  # one for run 0, two for run 1
    assert counters["campaign.quarantined_jobs"] == 1


def test_resume_reruns_only_the_quarantined_job(monkeypatch, tmp_path):
    """A quarantined job leaves no record, so resuming runs it alone."""
    path = tmp_path / "store.jsonl"
    _register(monkeypatch, {1: 99})
    first = Campaign(executor=SerialExecutor(retries=1), store=ArtifactStore(path))
    first.run(_jobs())
    assert len(first.last_report.failures) == 1
    calls = _register(monkeypatch, {})
    second = Campaign(store=ArtifactStore(path), resume=True)
    results = second.run(_jobs())
    assert calls == {1: 1}
    assert second.last_report.reused_jobs == 2
    assert sorted(r.samples for r in results.values()) == [(0.0,), (1.0,), (2.0,)]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_without_retries_the_original_exception_propagates(monkeypatch, failing):
    """Fail fast: the jobs after the failing one never run."""
    calls = _register(monkeypatch, {failing: 1})
    with pytest.raises(Flaky, match=f"run {failing}"):
        Campaign(executor=SerialExecutor()).run(_jobs())
    assert calls == {index: 1 for index in range(failing + 1)}


def _degraded_executor(faults, job, retries):
    """One worker, one job in flight at a time; every pool submission of
    ``job`` crashes it, until the rebuild budget is spent."""
    crashes = MAX_POOL_REBUILDS + 1
    return faults.Executor(
        1, {job.job_id: [faults.CRASH] * crashes}, retries=retries, job_timeout=60.0
    )


def test_degraded_endgame_retries_in_process(monkeypatch, faults):
    """The endgame quarantines the job that kept killing its workers and
    runs the jobs no pool break caught in-process, retrying there."""
    calls = _register(monkeypatch, {1: 1})
    jobs = _jobs()
    executor = _degraded_executor(faults, jobs[0], retries=MAX_POOL_REBUILDS + 2)
    started = time.monotonic()
    assert [r.samples for r in executor.execute(jobs)] == [(1.0,), (2.0,)]
    assert time.monotonic() - started < 10.0
    summary = executor.last_resilience
    assert summary.degraded and summary.worker_crashes == MAX_POOL_REBUILDS + 1
    assert summary.retries == 1
    (failure,) = summary.failures
    assert (failure.job_id, failure.kind) == (jobs[0].job_id, "worker_crash")
    assert calls == {1: 2, 2: 1}  # every attempt ran here, job 0 never did


def test_degraded_endgame_without_retries_propagates(monkeypatch, faults):
    """Without retries the endgame raises for the job that kept killing its
    workers, naming it, instead of running it in the campaign's process."""
    calls = _register(monkeypatch, {})
    jobs = _jobs()
    executor = _degraded_executor(faults, jobs[0], retries=0)
    started = time.monotonic()
    with pytest.raises(WorkerCrashError, match=jobs[0].job_id) as raised:
        list(executor.execute(jobs))
    assert time.monotonic() - started < 10.0
    assert executor.last_resilience.degraded
    failure = raised.value.failure
    assert (failure.job_id, failure.label, failure.kind) == (
        jobs[0].job_id, "flaky", "worker_crash"
    )
    assert calls == {}


def _register_worker_killer(monkeypatch, victim: int) -> None:
    """Register ``flaky``: run index ``victim`` kills the worker process it
    runs in; in the campaign's own process it raises instead, so a broken
    endgame fails the test rather than ending the test session."""
    campaign_pid = os.getpid()

    def runner(job, run_index):
        if run_index == victim:
            if os.getpid() == campaign_pid:
                raise AssertionError("the crashing job ran in the campaign's process")
            os._exit(17)
        return RunOutcome(value=float(run_index))

    monkeypatch.setitem(SCENARIO_RUNNERS, "flaky", runner)


def test_a_job_that_kills_every_worker_does_not_kill_the_campaign(monkeypatch):
    _register_worker_killer(monkeypatch, victim=1)
    jobs = _jobs()
    started = time.monotonic()
    with pytest.raises(WorkerCrashError, match=jobs[1].job_id) as raised:
        Campaign(executor=ParallelExecutor(2)).run(jobs)
    assert time.monotonic() - started < 20.0
    assert raised.value.failure.job_id == jobs[1].job_id


def test_a_job_that_kills_every_worker_is_quarantined_with_retries(monkeypatch):
    _register_worker_killer(monkeypatch, victim=1)
    jobs = _jobs()
    campaign = Campaign(executor=ParallelExecutor(2, retries=1))
    started = time.monotonic()
    results = campaign.run(jobs)
    assert time.monotonic() - started < 20.0
    assert {job_id: r.samples for job_id, r in results.items()} == {
        jobs[0].job_id: (0.0,),
        jobs[2].job_id: (2.0,),
    }
    (failure,) = campaign.last_report.failures
    assert (failure.job_id, failure.kind) == (jobs[1].job_id, "worker_crash")
