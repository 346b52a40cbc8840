"""PCT: Probabilistic Concurrency Testing (Burckhardt et al., ASPLOS 2010).

The classic randomized scheduler with a probabilistic guarantee for bugs of
depth ``d``: every thread receives a random high priority; ``d - 1`` change
points are sampled over the (estimated) execution length; at each change
point the currently running thread's priority is demoted below all base
priorities.  At every step the highest-priority enabled thread runs.

The paper reimplements PCT (depth 3) inside its own framework for a fair
event-count comparison (Section 5.1); we do the same.  The execution-length
estimate ``k`` is refreshed from observed lengths across executions, as real
PCT implementations do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.schedulers.base import SeededPolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.events import Event
    from repro.runtime.executor import Candidate, Executor, ExecutionResult


class PctPolicy(SeededPolicy):
    """Priority scheduler with ``depth - 1`` random priority change points."""

    def __init__(self, depth: int = 3, seed: int | None = None, initial_length_estimate: int = 64):
        super().__init__(seed)
        if depth < 1:
            raise ValueError("PCT depth must be at least 1")
        self.depth = depth
        #: Estimated number of events per execution (k in the PCT paper).
        self.length_estimate = max(1, initial_length_estimate)

    def begin(self, execution: "Executor") -> None:
        self._priorities: dict[int, float] = {}
        # Change point i demotes to priority i (all below base priorities,
        # which live in [depth, depth + 1)).
        count = min(self.depth - 1, max(0, self.length_estimate - 1))
        population = range(1, self.length_estimate + 1)
        self._change_points = set(self.rng.sample(population, count)) if count else set()

    def choose(self, candidates: "list[Candidate]", execution: "Executor") -> "Candidate":
        # Explicit arg-max (first maximal element, exactly like max() with a
        # priority key): missing priorities are drawn in candidate order,
        # keeping the rng stream identical to the straightforward version.
        priorities = self._priorities
        best = None
        best_priority = -1.0
        for candidate in candidates:
            tid = candidate.tid
            priority = priorities.get(tid)
            if priority is None:
                # Base priorities are drawn from [depth, depth + 1) so every
                # change-point priority (0 .. (depth-2)/depth) sits strictly
                # below them.
                priority = priorities[tid] = self.depth + self.rng.random()
            if priority > best_priority:
                best_priority = priority
                best = candidate
        return best

    def notify(self, event: "Event", execution: "Executor") -> None:
        step = execution.step_index  # 1-based once the event is recorded
        if step in self._change_points:
            # Demote the thread that just ran; successive change points use
            # decreasing priorities so later demotions rank even lower.
            self._change_points.discard(step)
            rank = len(self._change_points)
            self._priorities[event.tid] = float(rank) / self.depth
        if step > self.length_estimate:
            self.length_estimate = step

    def end(self, result: "ExecutionResult", execution: "Executor") -> None:
        # Track the longest observed execution as the next k estimate.
        self.length_estimate = max(self.length_estimate, result.steps)
