"""Bench: raw engine throughput, with a perf-regression gate.

Not a paper figure — these keep the substrate honest: executor event
throughput and fuzzer schedules/second are the quantities that determine how
far a fixed wall-clock budget goes, the paper's justification for using
timeouts rather than schedule counts (Section 5.1).

Plain ``time.perf_counter`` loops (not pytest-benchmark) so the numbers are
produced on every run, including CI's plain ``pytest`` invocation.  Every
subject (and the calibration loop) is timed ``SAMPLES`` times and the best
rate kept, which suppresses GC/scheduler noise.  Each run writes
``results/BENCH_engine.json`` with:

* raw steps/sec (and fuzzer schedules/sec) per subject;
* a *normalized* rate — steps/sec divided by a pure-Python calibration
  loop's ops/sec — so numbers from machines of different speeds are
  comparable;
* the speedup over each frozen baseline section (``FROZEN_SECTIONS``),
  measured via normalized rates;
* every calibration reading and their spread (see ``timing.py``), so a
  result can be read against host drift.

The regression gate compares normalized rates against the checked-in
``benchmarks/engine_baseline.json`` and fails when any subject regresses
more than ``MAX_REGRESSION`` (20%).  Refresh the gate baseline after an
intentional perf change with::

    RFF_REGEN_PERF_BASELINE=gate PYTHONPATH=src python -m pytest benchmarks/test_engine_perf.py -q

(``RFF_REGEN_PERF_BASELINE=pre_pr`` and ``=pre_step_diet`` exist only to
document how the frozen sections were captured, on the engine of their
time; do not overwrite them.)
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from timing import SAMPLES, best_rate, calibrate

from repro import bench
from repro.core.fuzzer import RffFuzzer
from repro.runtime.executor import Executor
from repro.schedulers.pct import PctPolicy
from repro.schedulers.pos import PosPolicy
from repro.schedulers.random_walk import RandomWalkPolicy

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BASELINE_PATH = Path(__file__).resolve().parent / "engine_baseline.json"

#: Fail the gate when a subject's normalized rate drops below 80% of baseline.
MAX_REGRESSION = 0.20

#: Frozen baseline sections, reported as speedups and never overwritten:
#: ``pre_pr`` is the engine before the hot-path overhaul, ``pre_step_diet``
#: the engine before the enabled-set scan, the choice check and PCT's
#: arg-max stopped making Python calls per thread or candidate.
FROZEN_SECTIONS = ("pre_pr", "pre_step_diet")

#: (label, program name, policy factory, executions per sample).
EXECUTOR_SUBJECTS = [
    ("executor/account-randomwalk", "CS/account", lambda: RandomWalkPolicy(1), 120),
    ("executor/reorder_100-randomwalk", "CS/reorder_100", lambda: RandomWalkPolicy(1), 20),
    ("executor/reorder_10-pos", "CS/reorder_10", lambda: PosPolicy(1), 60),
    ("executor/safestack-pos", "SafeStack", lambda: PosPolicy(2), 24),
    # Lock-contended, about 50 threads: the shape that dominates a full
    # bench sweep, where most scanned threads are blocked on the mutex.
    ("executor/twostage_50-pct", "CS/twostage_50", lambda: PctPolicy(depth=3, seed=1), 10),
    ("executor/twostage_50-pos", "CS/twostage_50", lambda: PosPolicy(1), 10),
]

#: (label, program name, schedules per fuzzer run, repetitions).
FUZZER_SUBJECTS = [
    ("fuzzer/reorder_5-rff", "CS/reorder_5", 20, 6),
]


def _sample_executor(label: str, program_name: str, policy_factory, executions: int) -> dict:
    program = bench.get(program_name)
    max_steps = program.max_steps or 4000
    # Warm up generators/caches outside the timed loops.
    Executor(program, policy_factory(), max_steps=max_steps).run()

    def work() -> int:
        return sum(
            Executor(program, policy_factory(), max_steps=max_steps).run().steps
            for _ in range(executions)
        )

    steps, wall = best_rate(SAMPLES, work)
    return {"label": label, "steps": steps, "wall": wall, "rate": steps / wall}


def _sample_fuzzer(label: str, program_name: str, budget: int, reps: int) -> dict:
    program = bench.get(program_name)
    RffFuzzer(program, seed=3).run(budget)

    def work() -> int:
        return sum(RffFuzzer(program, seed=seed).run(budget).executions for seed in range(reps))

    schedules, wall = best_rate(SAMPLES, work)
    return {"label": label, "steps": schedules, "wall": wall, "rate": schedules / wall}


def _load_baseline() -> dict:
    if BASELINE_PATH.exists():
        return json.loads(BASELINE_PATH.read_text())
    return {}


def _speedup(section: dict | None, label: str, normalized: float) -> float | None:
    """Normalized rate over a frozen baseline section's, if it has ``label``."""
    if not section or label not in section["subjects"]:
        return None
    return normalized / (section["subjects"][label] / section["calibration_ops_per_sec"])


def test_engine_throughput_and_regression_gate():
    calibration = calibrate()
    samples = [_sample_executor(*subject) for subject in EXECUTOR_SUBJECTS]
    samples += [_sample_fuzzer(*subject) for subject in FUZZER_SUBJECTS]
    ops_per_sec = calibration.ops_per_sec

    baseline = _load_baseline()
    regen = os.environ.get("RFF_REGEN_PERF_BASELINE")
    if regen:
        section = {
            "calibration_ops_per_sec": round(ops_per_sec, 1),
            "subjects": {s["label"]: round(s["rate"], 1) for s in samples},
        }
        baseline[regen] = section
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")

    payload: dict = {**calibration.record(), "max_regression": MAX_REGRESSION, "subjects": {}}
    regressions = []
    for sample in samples:
        label = sample["label"]
        normalized = sample["rate"] / ops_per_sec
        entry = {
            "steps": sample["steps"],
            "wall_sec": round(sample["wall"], 4),
            "steps_per_sec": round(sample["rate"], 1),
            "normalized": round(normalized, 6),
        }
        for frozen in FROZEN_SECTIONS:
            speedup = _speedup(baseline.get(frozen), label, normalized)
            if speedup is not None:
                entry[f"{frozen}_steps_per_sec"] = baseline[frozen]["subjects"][label]
                entry[f"speedup_vs_{frozen}"] = round(speedup, 3)
        ratio = _speedup(baseline.get("gate"), label, normalized)
        if ratio is not None:
            entry["vs_gate_baseline"] = round(ratio, 3)
            if ratio < 1.0 - MAX_REGRESSION:
                regressions.append(f"{label}: {ratio:.2f}x of gate baseline")
        payload["subjects"][label] = entry

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(json.dumps(payload, indent=2) + "\n")

    assert all(s["steps"] > 0 for s in samples)
    if not regen:
        assert not regressions, (
            "engine throughput regressed >20% vs benchmarks/engine_baseline.json: "
            + "; ".join(regressions)
            + " (see results/BENCH_engine.json; refresh with RFF_REGEN_PERF_BASELINE=gate "
            "after an intentional change)"
        )
