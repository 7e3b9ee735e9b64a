"""Progress reporter behaviour."""

from __future__ import annotations

import io

from repro.campaign.progress import NullProgress, ProgressReporter


def test_null_progress_is_silent():
    progress = NullProgress()
    progress.start(total=10, skipped=2)
    progress.advance("job")
    progress.finish()  # nothing to assert: must simply not fail or print


def test_reporter_announces_resume_and_summary():
    stream = io.StringIO()
    progress = ProgressReporter(stream=stream, min_interval=0.0, prefix="test")
    progress.start(total=4, skipped=2)
    progress.advance("a/b")
    progress.advance("c/d")
    progress.finish()

    out = stream.getvalue()
    assert "resuming: 2/4 jobs already in the store" in out
    assert "3/4 jobs (75%)" in out
    assert "(a/b)" in out
    assert "done: 2 jobs executed, 2 reused from store" in out


def test_reporter_throttles_output():
    stream = io.StringIO()
    progress = ProgressReporter(stream=stream, min_interval=3600.0, prefix="test")
    progress.start(total=100)
    for _ in range(50):
        progress.advance()
    progress.finish()

    lines = [line for line in stream.getvalue().splitlines() if line]
    # Only the final summary gets through inside one throttle interval.
    assert len(lines) == 1
    assert lines[0].startswith("[test] done:")


def test_null_progress_resilience_hooks_are_silent():
    progress = NullProgress()
    progress.retry("a/b", 2, 3, "exception", 0.1)
    progress.quarantine("a/b", 3, "timeout")
    progress.degrade(4)  # nothing to assert: must simply not fail or print


def test_reporter_emits_retry_quarantine_and_degrade_unthrottled():
    stream = io.StringIO()
    # A huge throttle interval: resilience lines must get through anyway.
    progress = ProgressReporter(stream=stream, min_interval=3600.0, prefix="test")
    progress.start(total=4)
    progress.retry("a/b", 2, 3, "exception", 0.25)
    progress.retry("a/b", 3, 3, "timeout", 0.0)
    progress.quarantine("a/b", 3, "worker_crash")
    progress.degrade(4)

    out = stream.getvalue()
    assert "retry a/b: exception, attempt 2/3, backoff 0.25s" in out
    assert "retry a/b: timeout, attempt 3/3\n" in out  # no backoff suffix
    assert "quarantined a/b after 3 attempts (worker_crash)" in out
    assert "degraded to serial execution after 4 consecutive worker-pool failures" in out


def test_reporter_survives_a_closed_stream():
    stream = io.StringIO()
    progress = ProgressReporter(stream=stream, min_interval=0.0)
    progress.start(total=1)
    stream.close()
    progress.advance("x")  # must not raise
    progress.finish()


def test_reporter_streams_per_job_lines_from_the_pool(tiny_workload):
    """Pooled dispatch must not coarsen progress: the reporter sees one
    advance per job as results stream back from the workers."""
    from repro.campaign.campaign import Campaign
    from repro.campaign.executor import ParallelExecutor
    from repro.campaign.jobs import seed_block_jobs
    from repro.platform.presets import rp_config

    jobs = seed_block_jobs(
        "rp", "max_contention", seed=7, num_runs=6,
        workload=tiny_workload, config=rp_config(), max_cycles=300_000,
    )
    stream = io.StringIO()
    progress = ProgressReporter(stream=stream, min_interval=0.0, prefix="test")
    Campaign(
        executor=ParallelExecutor(max_workers=2),
        progress=progress,
    ).run(jobs)

    advance_lines = [
        line for line in stream.getvalue().splitlines() if "/6 jobs (" in line
    ]
    assert len(advance_lines) == len(jobs)
    assert any("6/6 jobs (100%)" in line for line in advance_lines)


def test_reporter_emits_one_profile_line():
    from repro.obs.profiler import CampaignProfiler

    profiler = CampaignProfiler()
    profiler.start(jobs=4, workers=2)
    profiler.add("dispatch", 0.5)
    profiler.finish()

    stream = io.StringIO()
    progress = ProgressReporter(stream=stream, min_interval=0.0, prefix="test")
    progress.report_profile(profiler)
    lines = stream.getvalue().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("[test] profile:")
    assert "dispatch 0.50s" in lines[0]
