"""Partial Order Sampling (POS), Yuan et al. CAV 2018.

As described in the paper (Sections 3 and 4.1): every pending event is
assigned a fresh uniform random score the first time it is seen; the pending
event with the highest score executes next; after an event executes, the
scores of all pending events *racing* with it (same location, different
thread, at least one write) are reset so they will be re-drawn.  POS samples
partial orders far more uniformly than a random walk and is both RFF's
fallback scheduler and the RQ2 ablation baseline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.schedulers.base import SeededPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.events import Event
    from repro.runtime.executor import Candidate, Executor

#: Operation categories that can produce a write for race purposes.
_WRITEY = frozenset({"write", "rmw"})


class PosPolicy(SeededPolicy):
    """Random-score priority scheduler with racing-score resets."""

    def begin(self, execution: "Executor") -> None:
        # Pending-event identity: (tid, per-thread step count).  A thread's
        # score survives steps of other threads but is re-drawn once the
        # thread advances past the event or a racing event executes.
        self._scores: dict[tuple[int, int], float] = {}

    def _key(self, candidate: "Candidate", execution: "Executor") -> tuple[int, int, str]:
        thread = execution.threads[candidate.tid]
        # The kind disambiguates a thread's pending operation from a
        # coexisting TSO store-buffer flush candidate.
        return (candidate.tid, thread.step_count, candidate.kind)

    def score_of(self, candidate: "Candidate", execution: "Executor") -> float:
        """Current score of a pending event, drawing one if absent."""
        key = self._key(candidate, execution)
        scores = self._scores
        try:
            return scores[key]
        except KeyError:
            score = scores[key] = self.rng.random()
            return score

    def choose(self, candidates: "list[Candidate]", execution: "Executor") -> "Candidate":
        # Explicit arg-max (first maximal element, exactly like max() with a
        # score key): scores are drawn in candidate order, keeping the rng
        # stream identical to the straightforward implementation.
        threads = execution.threads
        scores = self._scores
        rng_random = self.rng.random
        best = None
        best_score = -1.0
        for candidate in candidates:
            key = (candidate.tid, threads[candidate.tid].step_count, candidate.kind)
            try:
                score = scores[key]
            except KeyError:
                score = scores[key] = rng_random()
            if score > best_score:
                best_score = score
                best = candidate
        return best

    def notify(self, event: "Event", execution: "Executor") -> None:
        # Reset scores of pending events racing with the executed event.
        # TSO flush events are visibility points and race like writes.
        is_writeish = event.is_write or event.kind == "flush"
        if not (is_writeish or event.is_read):
            return
        location = event.location
        event_tid = event.tid
        scores = self._scores
        # Finished threads have no pending event, so walking only the
        # unfinished ones resets exactly what a walk over all threads would.
        # The location test comes first: it rejects most threads.
        for thread in execution.unfinished_threads():
            pending = thread.pending
            if pending is None or pending.location != location:
                continue
            if thread.tid != event_tid and (is_writeish or pending.category in _WRITEY):
                scores.pop((thread.tid, thread.step_count, pending.kind), None)
