"""Shared timing helpers for the calibration-normalised perf gates.

Every gate under ``benchmarks/`` that compares against a frozen baseline
normalises by the same pure-Python calibration loop, so a figure measured
on one machine can be read on another.  The loop's own reading drifts with
host load (several readings minutes apart on one 2-CPU host spanned 3.8M
to 6.3M ops/s), so a gate records every reading and their spread next to
the estimate it used: a result can then be read against the drift.

The estimators are the ones the gates always used: the calibration is the
best (highest) of ``SAMPLES`` short readings, and a timed subject keeps its
best (fastest) of N samples, which suppresses GC and scheduler hiccups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

#: Calibration readings per calibration (the best is kept).
SAMPLES = 5


def calibrate_once(duration: float) -> float:
    """Ops/sec of a fixed pure-Python loop: a machine-speed yardstick.

    The loop mixes dict access, attribute-free arithmetic and method calls —
    roughly the instruction mix of the executor hot path — so normalizing
    steps/sec by it cancels out raw machine speed when comparing against a
    baseline captured elsewhere.
    """
    table = {i: i for i in range(64)}
    acc = 0
    ops = 0
    deadline = time.perf_counter() + duration
    while time.perf_counter() < deadline:
        for i in range(1000):
            acc += table[i & 63]
            table[i & 63] = acc & 1023
        ops += 1000
    return ops / duration


@dataclass(frozen=True)
class Calibration:
    """The calibration readings a gate took; the estimate is their best."""

    readings: tuple[float, ...]

    @property
    def ops_per_sec(self) -> float:
        return max(self.readings)

    def __add__(self, other: "Calibration") -> "Calibration":
        # Pooling readings keeps the estimator: the best of all of them.
        return Calibration(self.readings + other.readings)

    def record(self) -> dict:
        """The estimate, every reading, and the readings' relative spread
        ``(max - min) / max`` — the fields a ``BENCH_*.json`` carries."""
        high, low = max(self.readings), min(self.readings)
        return {
            "calibration_ops_per_sec": round(high, 1),
            "calibration_readings": [round(r, 1) for r in self.readings],
            "calibration_spread": round((high - low) / high, 4),
        }


def calibrate(duration: float = 0.05) -> Calibration:
    """``SAMPLES`` readings of :func:`calibrate_once`, ``duration`` s each."""
    return Calibration(tuple(calibrate_once(duration) for _ in range(SAMPLES)))


def best_rate(samples: int, work: Callable[[], int]) -> tuple[int, float]:
    """``(count, wall seconds)`` of the fastest of ``samples`` timed calls.

    ``work`` runs the subject once and returns how many units (steps,
    schedules) it did; the call with the highest units per second wins.
    """
    best: tuple[int, float] | None = None
    for _ in range(samples):
        start = time.perf_counter()
        count = work()
        wall = time.perf_counter() - start
        if best is None or count / wall > best[0] / best[1]:
            best = (count, wall)
    assert best is not None, "best_rate needs at least one sample"
    return best
