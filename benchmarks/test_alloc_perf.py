"""Bench: budget-allocator machinery overhead (campaign wall time).

``UniformAllocator`` routes a campaign through the round/slice/merge
machinery while executing the exact same schedules as ``allocator=None``.
The serial ``Campaign`` runs ``allocator=None`` as one uniform round of
that same machinery, so without a store the two variants differ only in
the allocation ledger the uniform one returns: the ratio no longer
isolates the bookkeeping cost, it only bounds the ledger's.  This bench
writes ``results/BENCH_alloc.json`` and asserts the ratio stays within
1.05x; adaptive Laplace numbers are reported alongside for context (not
gated: retirement changes the executed workload itself).

Plain ``time.perf_counter`` loops (not pytest-benchmark) so the numbers
are produced on every run, including CI's plain ``pytest`` invocation.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro import bench
from repro.harness.allocator import CellInfo, LaplaceAllocator, UniformAllocator
from repro.harness.campaign import Campaign, CampaignConfig
from repro.harness.tools import random_tool

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Subjects RandomWalk essentially never cracks at this budget, so every
#: sample executes the full budget and per-execution cost dominates the
#: timing (fixed per-campaign setup would otherwise drown the signal).
PROGRAMS = ["CS/reorder_10", "CS/reorder_20"]
CONFIG = CampaignConfig(trials=1, budget=1500, base_seed=20240809)
MAX_OVERHEAD = 1.05
SAMPLES = 3


def _run_campaign(allocator):
    config = CampaignConfig(
        trials=CONFIG.trials,
        budget=CONFIG.budget,
        base_seed=CONFIG.base_seed,
        allocator=allocator,
    )
    programs = [bench.get(name) for name in PROGRAMS]
    return Campaign(config).run([random_tool()], programs)


def _best_of(variants: dict) -> dict[str, float]:
    """Best-of-N wall time per variant, samples interleaved round-robin so
    cache warm-up and machine drift cannot favour one variant."""
    best = {name: float("inf") for name in variants}
    for _ in range(SAMPLES):
        for name, make_allocator in variants.items():
            start = time.perf_counter()
            _run_campaign(make_allocator())
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def test_allocator_machinery_overhead_within_budget():
    # Warm imports/caches outside the timed loops, and pin the equivalence
    # that makes the timing comparison honest: uniform-allocated campaigns
    # execute schedule-for-schedule the same work as the legacy path.
    legacy_result = _run_campaign(None)
    uniform_result = _run_campaign(UniformAllocator())
    assert uniform_result.results == legacy_result.results

    walls = _best_of(
        {
            "legacy": lambda: None,
            "uniform": UniformAllocator,
            "laplace": lambda: LaplaceAllocator(rounds=4),
        }
    )
    legacy_wall, uniform_wall, laplace_wall = (
        walls["legacy"], walls["uniform"], walls["laplace"]
    )
    overhead = uniform_wall / legacy_wall

    executions = sum(
        r.executions for trials in legacy_result.results.values() for r in trials
    )
    payload = {
        "max_overhead": MAX_OVERHEAD,
        "programs": PROGRAMS,
        "budget": CONFIG.budget,
        "executions_per_sample": executions,
        "samples": SAMPLES,
        "legacy_wall_s": round(legacy_wall, 4),
        "uniform_wall_s": round(uniform_wall, 4),
        "laplace_wall_s": round(laplace_wall, 4),
        "uniform_overhead": round(overhead, 3),
        "laplace_ratio": round(laplace_wall / legacy_wall, 3),
        "plan_microseconds": _plan_microbench(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_alloc.json").write_text(json.dumps(payload, indent=2) + "\n")
    assert overhead <= MAX_OVERHEAD, (
        f"allocator machinery costs {overhead:.3f}x campaign wall time "
        f"(budget {MAX_OVERHEAD}x); see results/BENCH_alloc.json"
    )


def _plan_microbench(cells: int = 98, iterations: int = 200) -> float:
    """Microseconds per ``plan()`` call at full-bench campaign width."""
    allocator = LaplaceAllocator(rounds=4)
    infos = [
        CellInfo("Random", f"prog/{index}", 0, 400) for index in range(cells)
    ]
    history = {
        info.key: []
        for info in infos
    }
    allocator.plan(infos, history, 0, 1234)  # warm
    start = time.perf_counter()
    for _ in range(iterations):
        allocator.plan(infos, history, 1, 1234)
    return round((time.perf_counter() - start) / iterations * 1e6, 1)
