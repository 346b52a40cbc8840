"""Chaos suite for the pooled engine: kill mid-batch, replay, converge.

The crash-replay contract of ``repro.harness.pool``: a worker killed
mid-batch costs exactly the *unfinished* slices of that batch — completed
slices are never re-run (no duplication), unfinished ones are never
dropped (no loss) — and a pooled campaign driven through the durable
store, killed and resumed as the faults demand, converges bit-identically
to the fault-free serial result.  Same plans, same claim-once state, same
assertions as ``tests/test_chaos.py``, with small pooled batches.
"""

from __future__ import annotations

import pytest

from repro import bench
from repro.harness import faults
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.faults import ChaosKill, ChaosPlan
from repro.harness.parallel import ParallelCampaign
from repro.harness.store import CorpusStore
from repro.harness.supervisor import SupervisedCampaign
from repro.harness.telemetry import TelemetryAggregator
from repro.harness.tools import RffTool, random_tool

TOOLS = ["RFF", "Random"]
PROGRAMS = ["CS/account", "Splash2/lu"]
CONFIG = CampaignConfig(trials=2, budget=80, base_seed=7)
ALL_KEYS = {
    (tool, program, trial)
    for tool in TOOLS
    for program in PROGRAMS
    for trial in range(CONFIG.trials)
}


@pytest.fixture(scope="module")
def serial():
    return Campaign(CONFIG).run(
        [RffTool(), random_tool()], [bench.get(p) for p in PROGRAMS]
    )


def seed_with_kill() -> int:
    for seed in range(200):
        plan = ChaosPlan(seed=seed, kill=0.3)
        points = plan.injection_points(
            [faults.cell_key(*key) for key in sorted(ALL_KEYS)]
        )
        if "kill" in points.values():
            return seed
    raise AssertionError("no seed in range produces a kill injection")


def arm(monkeypatch, tmp_path, plan: ChaosPlan) -> None:
    state = tmp_path / "chaos-state"
    state.mkdir(exist_ok=True)
    for key, value in plan.to_env(state).items():
        monkeypatch.setenv(key, value)


class TestKillMidBatchReplay:
    def test_replays_only_unfinished_slices(self, serial, tmp_path, monkeypatch):
        """A chaos-killed pool worker loses its batch remainder, nothing else."""
        arm(monkeypatch, tmp_path, ChaosPlan(seed=seed_with_kill(), kill=0.3))
        aggregator = TelemetryAggregator()
        result = SupervisedCampaign(
            CONFIG,
            processes=2,
            batch_size=4,
            telemetry=aggregator,
            fault_hook=faults.CHAOS_HOOK_REF,
            heartbeat_seconds=0.05,
            backoff_base=0.01,
        ).run(TOOLS, PROGRAMS)
        # The worker really died mid-batch and was recycled...
        recycles = aggregator.of_type("worker_recycle")
        assert recycles and any(r["kind"] == "crash" for r in recycles)
        crash_exits = [
            r for r in aggregator.of_type("worker_exit") if r["kind"] == "crash"
        ]
        assert any(r["exitcode"] == faults.CRASH_EXIT_CODE for r in crash_exits)
        # ...replaying some slices (cell_retry), but never re-recording a
        # completed one and never dropping one: every cell lands exactly once.
        assert aggregator.retries >= 1
        keys = [
            (r["tool"], r["program"], r["trial"])
            for r in aggregator.of_type("cell_end")
        ]
        assert len(keys) == len(set(keys))
        assert set(keys) == ALL_KEYS
        # And the survivors are bit-identical to the fault-free serial run.
        assert result == serial


class TestCrashIsolationInBatch:
    """A slice that kills its worker every time fails alone: the slices
    batched with it (before and behind) still land, bit-identical."""

    #: One worker and 16 cells pack into batches of four slices.
    config = CampaignConfig(trials=4, budget=80, base_seed=7)

    @pytest.fixture(scope="class")
    def serial4(self):
        return Campaign(self.config).run(
            [RffTool(), random_tool()], [bench.get(p) for p in PROGRAMS]
        )

    @pytest.mark.parametrize(
        "engine, max_retries",
        [(ParallelCampaign, 0), (SupervisedCampaign, 2)],
        ids=["parallel-no-retries", "supervised-two-retries"],
    )
    def test_crasher_fails_alone(self, serial4, engine, max_retries, monkeypatch):
        # The second slice of the first batch: one slice completes before
        # it, two never start behind it.
        target = ("RFF", "CS/account", 1)
        monkeypatch.setenv(faults.ENV_TARGET, faults.cell_key(*target))
        aggregator = TelemetryAggregator()
        kwargs = {"backoff_base": 0.01} if engine is SupervisedCampaign else {}
        result = engine(
            self.config,
            processes=1,
            batch_size=4,
            max_retries=max_retries,
            telemetry=aggregator,
            fault_hook=faults.CRASH_ALWAYS_REF,
            **kwargs,
        ).run(TOOLS, PROGRAMS)
        assert aggregator.of_type("batch_dispatch")[0]["slices"] == 4
        assert aggregator.of_type("campaign_end")[0]["failed_cells"] == 1
        assert aggregator.retries == max_retries
        for (tool, program), cells in serial4.results.items():
            for trial, expected in enumerate(cells):
                got = result.results[(tool, program)][trial]
                if (tool, program, trial) == target:
                    assert got.error is not None and "crash" in got.error
                else:
                    assert got == expected


class TestDurablePoolConvergence:
    def run_until_converged(self, store_dir, max_rounds: int = 10, **engine_kwargs):
        for _ in range(max_rounds):
            engine = SupervisedCampaign(
                CONFIG,
                processes=2,
                store=store_dir,
                heartbeat_seconds=0.05,
                backoff_base=0.01,
                **engine_kwargs,
            )
            try:
                result = engine.run(TOOLS, PROGRAMS)
            except ChaosKill:
                continue  # the simulated SIGKILL: resume through the store
            with CorpusStore(store_dir, readonly=True) as store:
                if set(store.completed()) == ALL_KEYS:
                    return result
        raise AssertionError(f"campaign did not converge in {max_rounds} rounds")

    def test_kills_and_torn_writes_converge(self, serial, tmp_path, monkeypatch):
        """Worker kills + torn store writes; killed-and-resumed == serial."""
        seed = next(
            s
            for s in range(200)
            if ChaosPlan(seed=s, torn_write=0.2).store_fault(1) == "torn_write"
        )
        arm(monkeypatch, tmp_path, ChaosPlan(seed=seed, kill=0.2, torn_write=0.2))
        result = self.run_until_converged(
            tmp_path / "store", fault_hook=faults.CHAOS_HOOK_REF
        )
        assert result == serial

    def test_pool_resume_from_serial_store(self, serial, tmp_path, monkeypatch):
        """Campaigns interoperate: a store written by the serial Campaign
        resumes pooled."""
        plan = ChaosPlan(
            seed=next(
                s
                for s in range(200)
                if ChaosPlan(seed=s, torn_write=0.3).store_fault(2) == "torn_write"
            ),
            torn_write=0.3,
        )
        arm(monkeypatch, tmp_path, plan)
        # The serial campaign dies on its torn store write; whatever it
        # leaves in the store, the pool finishes.
        with pytest.raises(ChaosKill):
            Campaign(CONFIG).run(
                [RffTool(), random_tool()],
                [bench.get(p) for p in PROGRAMS],
                store=tmp_path / "store",
            )
        result = self.run_until_converged(tmp_path / "store")
        assert result == serial
