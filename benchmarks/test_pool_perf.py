"""Bench: the worker pool against the retired per-cell engine (campaign wall).

The worker pool exists to amortize process start and tool/program
construction across slices — exactly the costs that dominate allocated
campaigns with many small slices.  This bench runs the full 49-program
bench × Random/PCT3 under four Laplace allocation rounds (≈250 small
slices) through the pool under the ``fork`` and ``forkserver`` start
methods, writes ``results/BENCH_pool.json``, and gates the point of the
pool: it must finish in at most 1/3 the wall time of the process-per-cell
engine it replaced.

That engine no longer exists, so its wall time is frozen in
``benchmarks/pool_baseline.json``, measured on the same workload with the
same samples and worker count.  Like ``engine_baseline.json`` it is
normalised by the pure-Python calibration loop of ``timing.py``:
the frozen wall is scaled by (baseline calibration / this machine's
calibration), so a slower machine expects a proportionally slower
per-cell engine.  The frozen result digest pins that the pool runs
schedule-for-schedule the campaign the baseline timed.

Plain ``time.perf_counter`` loops (not pytest-benchmark) so the numbers
are produced on every run, including CI's plain ``pytest`` invocation.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from timing import Calibration, calibrate

from repro import bench
from repro.harness.allocator import LaplaceAllocator
from repro.harness.campaign import CampaignConfig
from repro.harness.parallel import ParallelCampaign
from repro.harness.persist import result_to_dict

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BASELINE_PATH = Path(__file__).resolve().parent / "pool_baseline.json"

TOOLS = ["Random", "PCT3"]
#: Small per-cell budgets keep each slice cheap, so dispatch overhead —
#: the thing the pool removes — dominates the per-cell engine's wall time
#: the same way it does in real allocated sweeps over many targets.
CONFIG = CampaignConfig(
    trials=1, budget=24, base_seed=20240809, allocator=LaplaceAllocator(rounds=4)
)
MIN_SPEEDUP = 3.0
SAMPLES = 2
PROCESSES = 2
START_METHODS = ("fork", "forkserver")


def _run(start_method: str):
    return ParallelCampaign(
        CONFIG, processes=PROCESSES, start_method=start_method
    ).run(TOOLS, bench.names())


def _digest(result) -> str:
    """A digest of every cell result and the allocation ledger."""
    cells = [
        [list(key), [result_to_dict(r) for r in trials]]
        for key, trials in sorted(result.results.items())
    ]
    payload = json.dumps([cells, result.allocation], sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _measure(start_method: str) -> tuple[float, Calibration, str]:
    """(best wall, calibration, result digest): one warm-up run, then
    ``SAMPLES`` timed runs, each preceded by a calibration in this process
    — the protocol the frozen baseline was measured with.  The calibration
    pools every reading; its estimate is the best of them."""
    digest = _digest(_run(start_method))
    walls = []
    calibration = Calibration(())
    for _ in range(SAMPLES):
        calibration += calibrate()
        start = time.perf_counter()
        _run(start_method)
        walls.append(time.perf_counter() - start)
    return min(walls), calibration, digest


def test_pool_speedup_over_frozen_percell_baseline():
    baseline = json.loads(BASELINE_PATH.read_text())
    payload: dict = {
        "min_speedup": MIN_SPEEDUP,
        "tools": TOOLS,
        "programs": len(bench.names()),
        "budget": CONFIG.budget,
        "allocator": "laplace",
        "rounds": 4,
        "slices_per_sample": baseline["slices"],
        "processes": PROCESSES,
        "samples": SAMPLES,
        "start_methods": {},
    }
    slow = []
    for start_method in START_METHODS:
        pool_wall, calibration, digest = _measure(start_method)
        # The timing comparison is honest only if the pool ran the very
        # campaign the per-cell baseline timed.
        assert digest == baseline["digest"], f"{start_method}: results differ from the baseline's"
        frozen = baseline["percell"][start_method]
        percell_wall = frozen["wall_s"] * frozen["calibration_ops_per_sec"] / calibration.ops_per_sec
        speedup = percell_wall / pool_wall
        payload["start_methods"][start_method] = {
            **calibration.record(),
            "percell_baseline_wall_s": frozen["wall_s"],
            "percell_scaled_wall_s": round(percell_wall, 4),
            "pool_wall_s": round(pool_wall, 4),
            "speedup": round(speedup, 3),
        }
        if speedup < MIN_SPEEDUP:
            slow.append(f"{start_method}: {speedup:.2f}x")
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_pool.json").write_text(json.dumps(payload, indent=2) + "\n")
    assert not slow, (
        f"the pool is less than {MIN_SPEEDUP}x faster than the frozen per-cell baseline "
        f"({'; '.join(slow)}); see results/BENCH_pool.json"
    )
