"""Campaigns: tools × programs × trials, the data behind every figure.

The paper runs each tool for 5 wall-clock minutes per program, 20 trials
(Section 5.1).  Our budgets are *schedule counts* — the paper's own metric —
sized so a full campaign runs on one laptop core; everything scales through
:class:`CampaignConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.harness.stats import SummaryCell, summarize
from repro.harness.tools import BugSearchResult, TestingTool
from repro.runtime.guard import GuardConfig
from repro.runtime.program import Program


@dataclass(frozen=True)
class CampaignConfig:
    """Trial counts and budgets for one campaign."""

    trials: int = 20
    #: Default schedules-to-run per (tool, program, trial).
    budget: int = 2000
    base_seed: int = 1234
    #: Per-program budget overrides (large programs get smaller budgets so
    #: laptop-scale campaigns stay fast).
    budget_overrides: dict[str, int] = field(default_factory=dict)
    #: Online sanitizer names to attach to every tool (see
    #: ``repro.analysis.online.SANITIZERS``); empty = crash oracle only.
    sanitizers: tuple[str, ...] = ()
    #: Replays per found bug for STABLE/FLAKY verification (0 = off).
    verify_replays: int = 0
    #: Runtime guardrails attached to every execution (None = unguarded).
    guard: GuardConfig | None = None
    #: Budget allocator (see ``repro.harness.allocator``).  None keeps the
    #: historical single-pass uniform split; an allocator instance runs the
    #: campaign in seeded allocation rounds instead.
    allocator: Any = None

    def budget_for(self, program_name: str) -> int:
        return self.budget_overrides.get(program_name, self.budget)


def campaign_header(
    config: CampaignConfig, tool_names: list[str], program_names: list[str]
) -> dict[str, Any]:
    """The identity of one campaign: everything that determines its results.

    Checkpoint files and corpus stores both stamp this header and refuse to
    resume a campaign whose header differs — results computed under one
    configuration must never be silently mixed with another's.  The
    ``checkpoint_version`` key is the on-disk format version shared by both.

    An adaptive allocator stamps its identity into the header, so resuming
    a store under a different allocator is refused by the same equality
    check.  The uniform allocator (and ``allocator=None``) stamps nothing —
    its headers stay byte-identical to pre-allocator campaigns, keeping
    old stores resumable.

    Execution choices never appear here: worker count, ``batch_size`` and
    in-process versus pooled execution affect only *how* slices are
    dispatched, never what they compute (the bit-identity contract), so a
    store written by the serial :class:`Campaign` resumes under a
    :class:`~repro.harness.parallel.ParallelCampaign` and vice versa.
    """
    header = {
        "checkpoint_version": 1,
        "base_seed": config.base_seed,
        "budget": config.budget,
        "budget_overrides": dict(sorted(config.budget_overrides.items())),
        "trials": config.trials,
        "tools": list(tool_names),
        "programs": list(program_names),
        "sanitizers": list(config.sanitizers),
        "verify_replays": config.verify_replays,
        "guard": (list(config.guard.as_tuple()) if config.guard is not None else None),
    }
    identity = config.allocator.identity() if config.allocator is not None else None
    if identity is not None:
        header["allocator"] = identity
    return header


@dataclass
class CampaignResult:
    """All trial results, keyed by (tool name, program name)."""

    config: CampaignConfig
    results: dict[tuple[str, str], list[BugSearchResult]] = field(default_factory=dict)
    #: Allocation ledger (rounds, slices, estimates) when the campaign ran
    #: under a budget allocator; None for legacy single-pass campaigns.
    allocation: dict[str, Any] | None = None

    def trials(self, tool: str, program: str) -> list[BugSearchResult]:
        return self.results.get((tool, program), [])

    def tools(self) -> list[str]:
        return sorted({tool for tool, _ in self.results})

    def programs(self) -> list[str]:
        return sorted({program for _, program in self.results})

    def schedules_to_bug(self, tool: str, program: str) -> list[int | None]:
        return [r.schedules_to_bug for r in self.trials(tool, program)]

    def cell(self, tool: str, program: str) -> SummaryCell:
        return summarize(self.schedules_to_bug(tool, program))

    def is_error(self, tool: str, program: str) -> bool:
        trials = self.trials(tool, program)
        return bool(trials) and all(r.error is not None for r in trials)

    def bugs_found_per_trial(self, tool: str) -> list[int]:
        """#programs in which the bug was found, per trial index — the
        quantity behind "RFF finds 46.1 bugs on average" (Section 5.2)."""
        per_trial: dict[int, int] = {}
        for (result_tool, _), trials in self.results.items():
            if result_tool != tool:
                continue
            for index, result in enumerate(trials):
                per_trial[index] = per_trial.get(index, 0) + (1 if result.found else 0)
        return [per_trial[i] for i in sorted(per_trial)]

    def mean_bugs_found(self, tool: str) -> float:
        per_trial = self.bugs_found_per_trial(tool)
        return sum(per_trial) / len(per_trial) if per_trial else 0.0

    def cumulative_curve(self, tool: str) -> list[tuple[int, int]]:
        """Figure 4 data: for each bug found (any program, any trial), the
        schedule count at which it was found; returned as the sorted list of
        (schedules, cumulative bugs)."""
        # No per-result tool predicate: trials are already fetched per tool,
        # and results resumed from a store may carry whatever tool string
        # was stamped at record time — filtering on it dropped real hits.
        hits = sorted(
            r.schedules_to_bug
            for trials in (self.trials(tool, p) for p in self.programs())
            for r in trials
            if r.schedules_to_bug is not None
        )
        return [(schedules, index + 1) for index, schedules in enumerate(hits)]

    def one_shot_wins(self, tool: str) -> int:
        """#programs where the tool found the bug on the very first schedule
        of at least one trial (the QL-RF observation of Section 5.5)."""
        count = 0
        for program in self.programs():
            if any(r.schedules_to_bug == 1 for r in self.trials(tool, program)):
                count += 1
        return count


class Campaign:
    """Runs tools over programs and collects every trial result."""

    def __init__(self, config: CampaignConfig | None = None):
        self.config = config or CampaignConfig()

    def run(
        self,
        tools: list[TestingTool],
        programs: list[Program],
        progress=None,
        store=None,
    ) -> CampaignResult:
        """Execute the full cross product; ``progress`` is an optional
        callback ``(tool_name, program_name, trial_index)``.

        With ``store`` set (a :class:`~repro.harness.store.CorpusStore` or a
        path opened as one), every cell result is recorded durably as it
        completes and cells already in the store are skipped — so a killed
        serial campaign resumes through the same ledger parallel ones use.

        With ``config.allocator`` set, the campaign runs in allocation
        rounds instead of a single uniform pass (see
        :mod:`repro.harness.allocator`).
        """
        if self.config.allocator is not None:
            return self._run_allocated(tools, programs, progress, store)
        owned = False
        if isinstance(store, (str, Path)):
            # Lazy import: the store depends on persist, which imports tools
            # from this package; campaign stays import-light.
            from repro.harness.store import CorpusStore

            store = CorpusStore(store)
            owned = True
        try:
            done: dict[tuple[str, str, int], BugSearchResult] = {}
            if store is not None:
                store.begin_campaign(
                    campaign_header(
                        self.config, [t.name for t in tools], [p.name for p in programs]
                    )
                )
                done = store.completed()
            outcome = CampaignResult(config=self.config)
            for tool in tools:
                if self.config.sanitizers:
                    tool.sanitizers = tuple(self.config.sanitizers)
                if self.config.verify_replays:
                    tool.verify_replays = self.config.verify_replays
                if self.config.guard is not None:
                    tool.guard = self.config.guard
                trials = 1 if tool.deterministic else self.config.trials
                for program in programs:
                    budget = self.config.budget_for(program.name)
                    results = []
                    for trial in range(trials):
                        key = (tool.name, program.name, trial)
                        if key in done:
                            results.append(done[key])
                            continue
                        if progress is not None:
                            progress(tool.name, program.name, trial)
                        seed = self.config.base_seed + 7919 * trial
                        result = tool.find_bug(program, budget, seed)
                        # Tools record the seed in the trial field by default;
                        # stamp the trial index so serial, parallel and resumed
                        # campaigns produce bit-identical results.
                        result = replace(result, trial=trial)
                        if store is not None:
                            store.record_result(result)
                        results.append(result)
                    if tool.deterministic and self.config.trials > 1:
                        # Replicate the single deterministic result so per-trial
                        # aggregates stay comparable across tools.
                        results = results * self.config.trials
                    outcome.results[(tool.name, program.name)] = results
            return outcome
        finally:
            if owned:
                store.close()

    def _run_allocated(
        self,
        tools: list[TestingTool],
        programs: list[Program],
        progress=None,
        store=None,
    ) -> CampaignResult:
        """The round-based path: the allocator plans per-cell slices, slice
        results feed its estimates, and slices merge into cell results.

        Slices are recorded to the store as they complete and resumed
        slice-granularly, so a killed adaptive campaign converges to the
        same bits as an uninterrupted one.
        """
        from repro.harness.allocator import AllocationRun, CellInfo, slice_seed

        owned = False
        if isinstance(store, (str, Path)):
            from repro.harness.store import CorpusStore

            store = CorpusStore(store)
            owned = True
        try:
            done_cells: dict[tuple[str, str, int], BugSearchResult] = {}
            done_slices: dict[tuple[str, str, int, int], BugSearchResult] = {}
            if store is not None:
                store.begin_campaign(
                    campaign_header(
                        self.config, [t.name for t in tools], [p.name for p in programs]
                    )
                )
                done_cells = store.completed()
                done_slices = store.completed_slices()
            sliced_cells = {key[:3] for key in done_slices}
            cells = []
            tool_by_name: dict[str, TestingTool] = {}
            for tool in tools:
                if self.config.sanitizers:
                    tool.sanitizers = tuple(self.config.sanitizers)
                if self.config.verify_replays:
                    tool.verify_replays = self.config.verify_replays
                if self.config.guard is not None:
                    tool.guard = self.config.guard
                tool_by_name[tool.name] = tool
                trials = 1 if tool.deterministic else self.config.trials
                for program in programs:
                    budget = self.config.budget_for(program.name)
                    for trial in range(trials):
                        cells.append(
                            CellInfo(
                                tool=tool.name,
                                program=program.name,
                                trial=trial,
                                budget=budget,
                                one_shot=tool.deterministic,
                            )
                        )
            program_by_name = {p.name: p for p in programs}
            run_state = AllocationRun(self.config.allocator, cells, self.config.base_seed)
            while (plan := run_state.next_plan()) is not None:
                round_index = run_state.round_index
                round_results: dict[tuple[str, str, int], BugSearchResult] = {}
                for key in sorted(plan):
                    tool_name, program_name, trial = key
                    slice_key = (tool_name, program_name, trial, round_index)
                    if slice_key in done_slices:
                        round_results[key] = done_slices[slice_key]
                        continue
                    if round_index == 0 and key in done_cells and key not in sliced_cells:
                        # A store written by the single-pass path (only
                        # reachable under the uniform allocator, whose
                        # header matches): the whole cell is already done.
                        round_results[key] = done_cells[key]
                        continue
                    if progress is not None:
                        progress(tool_name, program_name, trial)
                    seed = slice_seed(self.config.base_seed, trial, round_index)
                    result = tool_by_name[tool_name].find_bug(
                        program_by_name[program_name], plan[key], seed
                    )
                    result = replace(result, trial=trial)
                    if store is not None:
                        store.record_slice(round_index, result)
                    round_results[key] = result
                run_state.observe(plan, round_results)
            merged = run_state.merged()
            if store is not None:
                already = store.completed()
                for key in sorted(merged):
                    if key not in already:
                        store.record_result(merged[key])
            outcome = CampaignResult(config=self.config)
            for tool in tools:
                trials = 1 if tool.deterministic else self.config.trials
                for program in programs:
                    results = [merged[(tool.name, program.name, t)] for t in range(trials)]
                    if tool.deterministic and self.config.trials > 1:
                        results = results * self.config.trials
                    outcome.results[(tool.name, program.name)] = results
            outcome.allocation = run_state.ledger()
            return outcome
        finally:
            if owned:
                store.close()
