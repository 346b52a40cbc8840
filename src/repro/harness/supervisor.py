"""Supervised campaigns: heartbeats, leases, backoff, triage.

A plain :class:`~repro.harness.parallel.ParallelCampaign` detects *dead*
workers (closed pipe) and *stuck* slices (``cell_timeout``), but a wedged
worker — deadlocked runtime, stuck I/O, a scheduler bug that spins without
progress — looks alive to both until the full timeout burns down.  Long
unattended campaigns need a tighter liveness contract.
:class:`SupervisedCampaign` adds one, as settings the worker pool of
:mod:`repro.harness.pool` reads:

* **Heartbeats.**  Pool workers run a daemon thread that sends a
  ``("heartbeat", seq, identity)`` message every ``heartbeat_seconds``.
  The beat thread deliberately stops when the worker is *wedged*
  (:func:`repro.harness.faults.is_wedged` — set by hang-style faults, and
  the model for a runtime that stops making progress), so liveness is
  judged by the parent, never self-reported by cooperative code.
* **Leases.**  Each worker holds a lease that renews on every message; a
  worker silent for ``lease_seconds`` loses it, is killed, and the
  unfinished slices of its batch are reassigned to a fresh worker (only
  the slice it was running is charged an attempt).
* **Exponential backoff.**  A reassigned slice waits
  :meth:`SupervisedCampaign.backoff_delay` seconds before its next
  attempt, so a crashing cell cannot hot-loop the pool while healthy
  cells proceed.
* **Bounded retries with triage.**  The retry budget is inherited from
  :class:`~repro.harness.parallel.ParallelCampaign` (``max_retries``).
  When it exhausts, the per-attempt failure kinds classify the cell: all
  attempts failing the same way is a *deterministic crasher* (the cell,
  not the environment); mixed kinds are a *flaky environment*.  The
  classification lands in the structured error result and the
  ``cell_error`` telemetry record.

Everything else — crash isolation, degraded in-process fallback,
checkpoint and store resume, bit-identical results — is the plain
campaign's, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.harness.parallel import ParallelCampaign


@dataclass
class SupervisedCampaign(ParallelCampaign):
    """A :class:`~repro.harness.parallel.ParallelCampaign` whose workers are
    held to a heartbeat/lease liveness contract.

    Results are bit-identical to the serial and plain-parallel campaigns —
    supervision only changes *when* failures are detected and how retried
    slices are paced, never what a completed slice computes.
    """

    #: Interval between worker heartbeats.
    heartbeat_seconds: float = 0.5
    #: A worker silent this long loses its lease and is killed.
    lease_seconds: float = 10.0
    #: First-retry backoff delay; doubles per attempt.
    backoff_base: float = 0.1
    #: Upper bound on any single backoff delay.
    backoff_cap: float = 5.0

    def backoff_delay(self, attempt: int) -> float:
        """Delay before retry #``attempt`` (1-based): capped exponential."""
        return min(self.backoff_cap, self.backoff_base * 2 ** (attempt - 1))

    def _classify(self, key: tuple[str, str, int]) -> str:
        kinds = self._failure_kinds.get(key, [])
        if len(set(kinds)) == 1:
            return f"deterministic crasher: every attempt failed with {kinds[0]!r}"
        return f"flaky environment: attempts failed with {sorted(set(kinds))}"
