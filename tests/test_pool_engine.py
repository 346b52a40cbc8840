"""Differential + unit suite for the persistent batched worker pool.

The pooled engine's contract: for a fixed (seed, allocator) it is a pure
wall-clock optimisation — serial == pool, bit for bit, under
every start method the platform offers (fork, and forkserver which is the
3.12+ default).  These tests pin that, plus the batching/packing algebra,
the wire-format interning, the telemetry schema of the new events, and
the per-worker profiling satellite.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from repro import bench
from repro.core.trace import intern_schedule
from repro.harness.allocator import LaplaceAllocator, pack_batches
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.parallel import (
    CellSpec,
    ParallelCampaign,
    _default_start_method,
)
from repro.harness.pool import wire_slice
from repro.harness.store import CorpusStore
from repro.harness.supervisor import SupervisedCampaign
from repro.harness.telemetry import TelemetryAggregator
from repro.harness.tools import pct_tool, random_tool

TOOLS = ["Random", "PCT3"]
PROGRAMS = ["CS/reorder_3", "CS/account", "CS/deadlock01", "Splash2/lu"]
CONFIG = CampaignConfig(trials=2, budget=30, base_seed=11)
ALLOC_CONFIG = CampaignConfig(
    trials=2, budget=40, base_seed=7, allocator=LaplaceAllocator(rounds=3)
)


@pytest.fixture(scope="module")
def serial():
    return Campaign(CONFIG).run(
        [random_tool(), pct_tool()], [bench.get(p) for p in PROGRAMS]
    )


@pytest.fixture(scope="module")
def serial_allocated():
    return Campaign(ALLOC_CONFIG).run(
        [random_tool(), pct_tool()], [bench.get(p) for p in PROGRAMS]
    )


# ----------------------------------------------------------------------
# Batch packing
# ----------------------------------------------------------------------
def spec(budget: int, trial: int = 0) -> CellSpec:
    return CellSpec(
        tool="Random",
        program="CS/account",
        trial=trial,
        seed=trial,
        budget=budget,
        factory_ref="repro.harness.tools:random_tool",
    )


class TestPackBatches:
    def test_count_cap(self):
        batches = pack_batches([spec(1, t) for t in range(7)], 3, 1000)
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_budget_cap_closes_batches(self):
        items = [spec(10, t) for t in range(4)]
        batches = pack_batches(items, 100, 25)
        assert [[s.budget for s in b] for b in batches] == [[10, 10], [10, 10]]

    def test_oversized_slice_gets_singleton_batch(self):
        items = [spec(5, 0), spec(500, 1), spec(5, 2), spec(5, 3)]
        batches = pack_batches(items, 100, 20)
        assert [[s.budget for s in b] for b in batches] == [[5], [500], [5, 5]]

    def test_order_preserved(self):
        items = [spec(1, t) for t in range(10)]
        batches = pack_batches(items, 4, 1000)
        flat = [s.trial for batch in batches for s in batch]
        assert flat == list(range(10))

    def test_deterministic(self):
        items = [spec(7, t) for t in range(9)]
        assert pack_batches(items, 2, 10) == pack_batches(items, 2, 10)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            pack_batches([spec(1)], 0, 10)


class TestWireFormat:
    def test_wire_slice_is_interned(self):
        first, second = wire_slice(spec(10)), wire_slice(spec(10))
        assert first is second  # identical slices share one tuple object

    def test_intern_schedule_roundtrip(self):
        items = ("Random", "CS/account", 0, 11, 30, "m:f")
        assert intern_schedule(items) == items
        assert intern_schedule(("x",)) is intern_schedule(("x",))


# ----------------------------------------------------------------------
# Bit-identity under both start methods
# ----------------------------------------------------------------------
START_METHODS = ["fork", "forkserver"]


class TestPoolBitIdentity:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_single_pass_matches_serial(self, serial, start_method):
        pool = ParallelCampaign(
            CONFIG,
            processes=2,
            batch_size=3,
            start_method=start_method,
        ).run(TOOLS, PROGRAMS)
        assert pool.results == serial.results

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_allocated_supervised_matches_serial(self, serial_allocated, start_method):
        pool = SupervisedCampaign(
            ALLOC_CONFIG,
            processes=2,
            start_method=start_method,
            heartbeat_seconds=0.05,
        ).run(TOOLS, PROGRAMS)
        assert pool.results == serial_allocated.results
        assert pool.allocation == serial_allocated.allocation

    def test_pool_matches_serial_with_store_and_checkpoint(self, tmp_path):
        pool = ParallelCampaign(
            CONFIG,
            processes=2,
            store=tmp_path / "store-pool",
            checkpoint=tmp_path / "ck.jsonl",
        ).run(TOOLS, PROGRAMS)
        serial = Campaign(CONFIG).run(
            [random_tool(), pct_tool()],
            [bench.get(p) for p in PROGRAMS],
            store=tmp_path / "store-serial",
        )
        assert pool.results == serial.results
        with CorpusStore(tmp_path / "store-pool", readonly=True) as pooled, CorpusStore(
            tmp_path / "store-serial", readonly=True
        ) as reference:
            assert pooled.completed() == reference.completed()


class TestStartMethodDefault:
    def test_prefers_forkserver_on_312(self, monkeypatch):
        monkeypatch.setattr(sys, "version_info", (3, 12, 0, "final", 0))
        assert _default_start_method() == "forkserver"

    def test_keeps_fork_before_312(self, monkeypatch):
        monkeypatch.setattr(sys, "version_info", (3, 11, 7, "final", 0))
        assert _default_start_method() == "fork"


# ----------------------------------------------------------------------
# Telemetry + caches
# ----------------------------------------------------------------------
class TestPoolTelemetry:
    def test_batch_dispatch_events_are_schema_valid(self):
        # The aggregator validates every record against EVENT_SCHEMA on
        # emit, so a completed run proves the new events carry their
        # required fields.
        aggregator = TelemetryAggregator()
        ParallelCampaign(
            CONFIG, processes=2, batch_size=2, telemetry=aggregator
        ).run(TOOLS, PROGRAMS)
        assert aggregator.batches_dispatched > 1
        for record in aggregator.of_type("batch_dispatch"):
            assert record["slices"] >= 1
            assert record["budget"] >= 1
        # Every cell completed exactly once: no loss, no duplication.
        keys = [
            (r["tool"], r["program"], r["trial"]) for r in aggregator.of_type("cell_end")
        ]
        assert len(keys) == len(set(keys)) == len(TOOLS) * len(PROGRAMS) * CONFIG.trials

    def test_pool_amortizes_processes(self):
        # The point of the fork server: far fewer worker processes than
        # slices.  2 pool workers serve all 16 cells.
        aggregator = TelemetryAggregator()
        ParallelCampaign(
            CONFIG, processes=2, telemetry=aggregator
        ).run(TOOLS, PROGRAMS)
        exits = aggregator.of_type("worker_exit")
        assert 1 <= len(exits) <= 2
        assert all(r["kind"] == "ok" for r in exits)

    def test_supervised_pool_heartbeats(self):
        aggregator = TelemetryAggregator()
        # Long enough cells that several 5ms beats land mid-slice.
        config = replace(CONFIG, budget=400)
        SupervisedCampaign(
            config,
            processes=1,
            telemetry=aggregator,
            heartbeat_seconds=0.005,
        ).run(TOOLS, PROGRAMS)
        # Beats carry the identity of the running slice.
        assert aggregator.heartbeats >= 1
        for record in aggregator.of_type("heartbeat"):
            assert (record["tool"], record["program"], record["trial"])[0] in TOOLS


class TestReusableOptOut:
    def test_testing_tool_defaults_reusable(self):
        assert random_tool().reusable is True
        assert pct_tool().reusable is True


# ----------------------------------------------------------------------
# Profiling satellite
# ----------------------------------------------------------------------
class TestProfiling:
    def test_profile_dumps_and_summary(self, tmp_path, serial):
        from repro.harness.reporting import profile_summary

        profile_dir = tmp_path / "prof"
        result = ParallelCampaign(
            CONFIG, processes=2, profile_dir=profile_dir
        ).run(TOOLS, PROGRAMS)
        assert result.results == serial.results  # profiling never changes results
        dumps = list(profile_dir.glob("worker-*.pstats"))
        assert 1 <= len(dumps) <= 2
        summary = profile_summary(profile_dir, top=5)
        assert "Worker profile" in summary
        assert "cumulative" in summary

    def test_profile_summary_empty_dir(self, tmp_path):
        from repro.harness.reporting import profile_summary

        assert "no .pstats dumps" in profile_summary(tmp_path)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCli:
    def test_pool_campaign_from_cli(self, capsys, tmp_path):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--parallel", "2",
                "--profile", str(tmp_path / "prof"),
                "--tools", "Random",
                "--programs", "CS/reorder_3", "CS/account",
                "--trials", "2",
                "--budget", "25",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "pooled batches:" in out
        assert "Worker profile" in out
