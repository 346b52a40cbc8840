"""Differential suite for allocator-driven campaigns.

Two contracts back the allocator rollout:

* **Uniform is invisible.**  ``--allocator uniform`` campaigns are
  bit-identical to the pre-allocator code path over the full 49-program
  bench × RandomWalk/PCT3 — same results, same store headers, and legacy
  stores resume under it unchanged.
* **Adaptive is engine-independent.**  For a fixed (seed, allocator),
  serial == parallel == supervised == chaos-SIGKILL'd-and-resumed, down
  to the allocation ledger (the ``test_chaos.py`` convergence pattern).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import bench
from repro.harness import faults
from repro.harness.allocator import LaplaceAllocator, NoveltyBiasAllocator, UniformAllocator
from repro.harness.campaign import Campaign, CampaignConfig, CampaignResult
from repro.harness.faults import ChaosKill, ChaosPlan
from repro.harness.parallel import ParallelCampaign
from repro.harness.store import CorpusStore, StoreMismatchError
from repro.harness.supervisor import SupervisedCampaign
from repro.harness.tools import BugSearchResult, RffTool, pct_tool, random_tool

# ----------------------------------------------------------------------
# Uniform == legacy over the full bench
# ----------------------------------------------------------------------
SWEEP_CONFIG = CampaignConfig(trials=1, budget=20, base_seed=11)


def sweep_tools():
    return [random_tool(), pct_tool()]


@pytest.fixture(scope="module")
def legacy_sweep():
    programs = [bench.get(name) for name in bench.names()]
    return Campaign(SWEEP_CONFIG).run(sweep_tools(), programs)


class TestUniformBitIdentity:
    def test_serial_uniform_matches_legacy_over_all_49_programs(self, legacy_sweep):
        config = replace(SWEEP_CONFIG, allocator=UniformAllocator())
        programs = [bench.get(name) for name in bench.names()]
        uniform = Campaign(config).run(sweep_tools(), programs)
        assert uniform.results == legacy_sweep.results
        assert legacy_sweep.allocation is None
        assert uniform.allocation["allocator"] == "uniform"
        assert len(uniform.allocation["rounds"]) == 1

    def test_parallel_uniform_matches_legacy_over_all_49_programs(self, legacy_sweep):
        config = replace(SWEEP_CONFIG, allocator=UniformAllocator())
        engine = ParallelCampaign(config, processes=0)
        uniform = engine.run(["Random", "PCT3"], bench.names())
        assert uniform.results == legacy_sweep.results

    def test_uniform_resumes_a_legacy_store(self, tmp_path):
        """A store written by the pre-allocator path resumes byte-compatibly
        under ``--allocator uniform``: identical header, every cell skipped,
        identical results."""
        store_dir = tmp_path / "store"
        config = CampaignConfig(trials=2, budget=60, base_seed=7)
        tools = [RffTool(), random_tool()]
        programs = [bench.get("CS/account"), bench.get("CS/reorder_4")]
        legacy = Campaign(config).run(tools, programs, store=store_dir)
        resumed = Campaign(replace(config, allocator=UniformAllocator())).run(
            tools, programs, store=store_dir
        )
        assert resumed.results == legacy.results
        with CorpusStore(store_dir, readonly=True) as store:
            inspection = store.inspect()
        assert inspection.slices == 0  # nothing re-ran; no slice records


# ----------------------------------------------------------------------
# Laplace: serial == parallel == supervised == killed-and-resumed
# ----------------------------------------------------------------------
TOOLS = ["RFF", "Random"]
PROGRAMS = ["CS/account", "Splash2/lu"]
LAPLACE_CONFIG = CampaignConfig(
    trials=2, budget=80, base_seed=7, allocator=LaplaceAllocator(rounds=3)
)
ALL_KEYS = {
    (tool, program, trial)
    for tool in TOOLS
    for program in PROGRAMS
    for trial in range(LAPLACE_CONFIG.trials)
}


@pytest.fixture(scope="module")
def laplace_serial():
    return Campaign(LAPLACE_CONFIG).run(
        [RffTool(), random_tool()], [bench.get(p) for p in PROGRAMS]
    )


def seed_with_injections(check) -> int:
    for seed in range(200):
        if check(seed):
            return seed
    raise AssertionError("no seed in range produces the wanted injection")


def arm(monkeypatch, tmp_path, plan: ChaosPlan) -> None:
    state = tmp_path / "chaos-state"
    state.mkdir(exist_ok=True)
    for key, value in plan.to_env(state).items():
        monkeypatch.setenv(key, value)


def cell_keys(plan: ChaosPlan) -> dict[str, str]:
    return plan.injection_points([faults.cell_key(*key) for key in sorted(ALL_KEYS)])


def run_until_converged(store_dir, max_rounds: int = 12, **engine_kwargs):
    """The durable-deployment loop of ``test_chaos.py``, under an adaptive
    allocator: start, die (maybe), resume — slices carry the allocation
    history between attempts."""
    for _ in range(max_rounds):
        engine = SupervisedCampaign(
            LAPLACE_CONFIG,
            processes=2,
            store=store_dir,
            heartbeat_seconds=0.05,
            backoff_base=0.01,
            **engine_kwargs,
        )
        try:
            result = engine.run(TOOLS, PROGRAMS)
        except ChaosKill:
            continue
        with CorpusStore(store_dir, readonly=True) as store:
            if set(store.completed()) == ALL_KEYS:
                return result
    raise AssertionError(f"campaign did not converge in {max_rounds} rounds")


class TestLaplaceEngineEquivalence:
    def test_parallel_matches_serial(self, laplace_serial):
        engine = ParallelCampaign(LAPLACE_CONFIG, processes=2)
        parallel = engine.run(TOOLS, PROGRAMS)
        assert parallel.results == laplace_serial.results
        assert parallel.allocation == laplace_serial.allocation

    def test_degraded_pool_matches_serial(self, laplace_serial):
        engine = ParallelCampaign(LAPLACE_CONFIG, processes=0)
        inprocess = engine.run(TOOLS, PROGRAMS)
        assert inprocess.results == laplace_serial.results
        assert inprocess.allocation == laplace_serial.allocation

    def test_supervised_matches_serial(self, laplace_serial):
        engine = SupervisedCampaign(
            LAPLACE_CONFIG, processes=2, heartbeat_seconds=0.05, backoff_base=0.01
        )
        supervised = engine.run(TOOLS, PROGRAMS)
        assert supervised.results == laplace_serial.results
        assert supervised.allocation == laplace_serial.allocation

    @pytest.mark.parametrize("start_method", ["fork", "forkserver"])
    def test_pooled_matches_serial(self, laplace_serial, start_method):
        engine = ParallelCampaign(
            LAPLACE_CONFIG, processes=2, start_method=start_method
        )
        pooled = engine.run(TOOLS, PROGRAMS)
        assert pooled.results == laplace_serial.results
        assert pooled.allocation == laplace_serial.allocation

    def test_store_resume_from_complete_store_matches_serial(
        self, laplace_serial, tmp_path
    ):
        store_dir = tmp_path / "store"
        tools = [RffTool(), random_tool()]
        programs = [bench.get(p) for p in PROGRAMS]
        first = Campaign(LAPLACE_CONFIG).run(tools, programs, store=store_dir)
        resumed = Campaign(LAPLACE_CONFIG).run(tools, programs, store=store_dir)
        assert first.results == laplace_serial.results
        assert resumed.results == laplace_serial.results
        assert resumed.allocation == laplace_serial.allocation

    def test_worker_kills_converge_to_serial(self, laplace_serial, tmp_path, monkeypatch):
        seed = seed_with_injections(
            lambda s: "kill" in cell_keys(ChaosPlan(seed=s, kill=0.3)).values()
        )
        arm(monkeypatch, tmp_path, ChaosPlan(seed=seed, kill=0.3))
        result = run_until_converged(
            tmp_path / "store", fault_hook=faults.CHAOS_HOOK_REF
        )
        assert result.results == laplace_serial.results
        assert result.allocation == laplace_serial.allocation


# ----------------------------------------------------------------------
# Stamped stores refuse mismatched allocators
# ----------------------------------------------------------------------
class TestAllocatorStamping:
    @pytest.fixture()
    def laplace_store(self, tmp_path):
        store_dir = tmp_path / "store"
        config = CampaignConfig(
            trials=1, budget=40, base_seed=7, allocator=LaplaceAllocator(rounds=2)
        )
        Campaign(config).run(
            [random_tool()], [bench.get("CS/account")], store=store_dir
        )
        return store_dir, config

    def test_uniform_resume_of_laplace_store_is_refused(self, laplace_store):
        store_dir, config = laplace_store
        with pytest.raises(StoreMismatchError):
            Campaign(replace(config, allocator=UniformAllocator())).run(
                [random_tool()], [bench.get("CS/account")], store=store_dir
            )

    def test_other_adaptive_allocator_is_refused_too(self, laplace_store):
        store_dir, config = laplace_store
        with pytest.raises(StoreMismatchError):
            Campaign(replace(config, allocator=NoveltyBiasAllocator(rounds=2))).run(
                [random_tool()], [bench.get("CS/account")], store=store_dir
            )

    def test_cli_refuses_resume_with_different_allocator(self, laplace_store, capsys):
        from repro.cli import main

        store_dir, _ = laplace_store
        code = main(
            [
                "campaign",
                "--store",
                str(store_dir),
                "--resume",
                "--tools",
                "Random",
                "--programs",
                "CS/account",
                "--trials",
                "1",
                "--budget",
                "40",
                "--seed",
                "7",
                "--allocator",
                "uniform",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "allocator" in err
        assert "laplace" in err


# ----------------------------------------------------------------------
# cumulative_curve over store-stamped tool strings
# ----------------------------------------------------------------------
class TestCumulativeCurveStampedTools:
    def test_counts_trials_whose_tool_field_came_from_a_store(self):
        """Results resumed from a store carry whatever tool string was
        stamped at record time; the curve must count them because trials
        are already fetched per tool key."""
        result = CampaignResult(config=CampaignConfig(trials=1, budget=10))
        result.results[("RFF", "CS/account")] = [
            BugSearchResult(
                tool="RFF@stamped",  # store-stamped variant string
                program="CS/account",
                trial=0,
                found=True,
                schedules_to_bug=4,
                executions=4,
            )
        ]
        result.results[("RFF", "CS/reorder_4")] = [
            BugSearchResult(
                tool="RFF",
                program="CS/reorder_4",
                trial=0,
                found=True,
                schedules_to_bug=9,
                executions=9,
            )
        ]
        assert result.cumulative_curve("RFF") == [(4, 1), (9, 2)]
