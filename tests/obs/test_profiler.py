"""Tests for kernel and campaign wall-clock profilers."""

import json

from repro.campaign.campaign import Campaign
from repro.campaign.executor import ParallelExecutor
from repro.campaign.jobs import seed_block_jobs
from repro.obs.profiler import CampaignProfiler, KernelProfiler, _HookProxy
from repro.platform.presets import rp_config
from repro.platform.system import MulticoreSystem
from repro.sim.config import ObservabilityConfig


def run_profiled_system(workload, max_cycles=60_000) -> MulticoreSystem:
    obs = ObservabilityConfig(profile_kernel=True)
    system = MulticoreSystem(rp_config(), seed=3, obs=obs)
    system.add_task(0, workload)
    for core in range(1, 4):
        system.add_greedy_contender(core)
    system.run(max_cycles=max_cycles)
    return system


class TestKernelProfiler:
    def test_enable_profiling_swaps_hooks_for_proxies(self, tiny_workload):
        system = run_profiled_system(tiny_workload)
        assert all(isinstance(c, _HookProxy) for c in system.kernel._tickers)

    def test_attribution_is_positive_and_bounded_by_wall(self, tiny_workload):
        profiler = run_profiled_system(tiny_workload).profiler
        assert profiler is not None
        assert profiler.runs == 1
        assert profiler.executed_cycles > 0
        assert 0.0 < profiler.attributed_seconds <= profiler.run_wall_seconds

    def test_executed_cycles_exclude_skipped_cycles(self, tiny_workload):
        system = run_profiled_system(tiny_workload)
        kernel = system.kernel
        assert kernel.cycles_skipped > 0
        assert system.profiler is not None
        assert system.profiler.executed_cycles == kernel.clock.cycle - kernel.cycles_skipped

    def test_report_roundtrips_through_json(self, tiny_workload, tmp_path):
        profiler = run_profiled_system(tiny_workload).profiler
        target = profiler.write(tmp_path / "kernel_profile.json")
        report = json.loads(target.read_text())
        assert report["type"] == "kernel_profile"
        assert report["scheduler_seconds"] >= 0.0
        assert "bus" in report["components"]
        assert any(name.startswith("core") for name in report["components"])


class TestCampaignProfiler:
    def test_phase_context_manager_accumulates(self):
        profiler = CampaignProfiler()
        with profiler.phase("store"):
            pass
        with profiler.phase("store"):
            pass
        assert profiler.events["store"] == 2
        assert profiler.seconds["store"] >= 0.0

    def test_coverage_is_zero_before_any_wall_measurement(self):
        profiler = CampaignProfiler()
        profiler.add("simulate", 1.0)
        assert profiler.coverage == 0.0

    def test_coverage_is_capped_at_one(self):
        profiler = CampaignProfiler()
        profiler.start(jobs=1, workers=1)
        profiler.finish()
        profiler.add("simulate", 1e9)
        assert profiler.coverage == 1.0

    def test_finish_writes_configured_output(self, tmp_path):
        target = tmp_path / "campaign_profile.json"
        profiler = CampaignProfiler(output_path=target)
        profiler.start(jobs=2, workers=1)
        profiler.finish()
        report = json.loads(target.read_text())
        assert report["type"] == "campaign_profile"
        assert report["jobs"] == 2
        assert set(report["phases"]) == set(CampaignProfiler.PHASES)

    def test_pool_campaign_attributes_most_of_the_wall_clock(self, tiny_workload):
        """Acceptance: the five phases cover (nearly) all of the pool's
        measured dispatch wall-clock."""
        jobs = seed_block_jobs(
            "tiny", "isolation", seed=5, num_runs=6,
            workload=tiny_workload, config=rp_config(), max_cycles=300_000,
        )
        profiler = CampaignProfiler()
        campaign = Campaign(executor=ParallelExecutor(max_workers=2), profiler=profiler)
        results = campaign.run(jobs)

        assert len(results) == len(jobs)
        assert profiler.wall_seconds > 0.0
        assert profiler.coverage >= 0.90
        assert profiler.events["spawn"] == 2  # two warmed workers
        assert profiler.events["simulate"] > 0
        assert profiler.events["result"] == len(jobs)
        assert profiler.events["dispatch"] == len(jobs)  # one future per job
