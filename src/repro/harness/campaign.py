"""Campaigns: tools × programs × trials, the data behind every figure.

The paper runs each tool for 5 wall-clock minutes per program, 20 trials
(Section 5.1).  Our budgets are *schedule counts* — the paper's own metric —
sized so a full campaign runs on one laptop core; everything scales through
:class:`CampaignConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.harness.stats import SummaryCell, summarize
from repro.harness.tools import BugSearchResult, TestingTool
from repro.runtime.guard import GuardConfig
from repro.runtime.program import Program

if TYPE_CHECKING:
    from repro.harness.allocator import CellInfo


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

    Corpus stores stamp this header and refuse to resume a campaign whose
    header differs — results computed under one configuration must never
    be silently mixed with another's.  The ``checkpoint_version`` key is
    the header's format version; it keeps the name of the JSONL checkpoint
    that once shared this header, because renaming it would change every
    header and make existing stores refuse to resume.

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


def campaign_cells(
    config: CampaignConfig, tools: list[tuple[str, bool]], program_names: list[str]
) -> list[CellInfo]:
    """The allocator's view of a campaign: one cell per (tool, program,
    trial), for ``tools`` given as (name, deterministic) pairs.  A
    deterministic tool explores systematically, so it runs one trial."""
    from repro.harness.allocator import CellInfo

    return [
        CellInfo(
            tool=name,
            program=program,
            trial=trial,
            budget=config.budget_for(program),
            one_shot=deterministic,
        )
        for name, deterministic in tools
        for program in program_names
        for trial in range(1 if deterministic else config.trials)
    ]


def assemble_result(
    config: CampaignConfig,
    tools: list[tuple[str, bool]],
    program_names: list[str],
    merged: dict[tuple[str, str, int], BugSearchResult],
) -> CampaignResult:
    """The merged cell results of :func:`campaign_cells`, in campaign order."""
    outcome = CampaignResult(config=config)
    for name, deterministic in tools:
        for program in program_names:
            trials = 1 if deterministic else config.trials
            results = [merged[(name, program, trial)] for trial in range(trials)]
            if deterministic and config.trials > 1:
                # Replicate the single deterministic result so per-trial
                # aggregates stay comparable across tools.
                results = results * config.trials
            outcome.results[(name, program)] = results
    return outcome


def open_store(store: Any) -> tuple[Any, bool]:
    """Resolve a ``store`` argument (a CorpusStore, a path or None) to
    ``(store, owned)``; an owned store was opened here and must be closed."""
    if isinstance(store, (str, Path)):
        # Lazy import: the store depends on persist, which imports tools
        # from this package; campaign stays import-light.
        from repro.harness.store import CorpusStore

        return CorpusStore(store), True
    return store, False


class StoredWork:
    """What a campaign's store already holds: whole cells recorded by
    single-pass campaigns and round slices recorded by allocated ones.

    Binding the store to the campaign header first means a store written
    under another configuration is refused before anything is read."""

    def __init__(self, store: Any, header: dict[str, Any], cells: list[CellInfo]) -> None:
        self.cells: dict[tuple[str, str, int], BugSearchResult] = {}
        self.slices: dict[tuple[str, str, int, int], BugSearchResult] = {}
        if store is not None:
            store.begin_campaign(header)
            keys = {cell.key for cell in cells}
            self.cells = {k: r for k, r in store.completed().items() if k in keys}
            self.slices = {k: r for k, r in store.completed_slices().items() if k[:3] in keys}
        self.sliced = {key[:3] for key in self.slices}

    def resumed_cells(self) -> int:
        return len(self.sliced | set(self.cells))

    def get(self, key: tuple[str, str, int], round_index: int) -> BugSearchResult | None:
        """The recorded result of ``key``'s slice in round ``round_index``.

        A whole cell stands for its round-0 slice: it was recorded by a
        single-pass campaign, whose header matches only a one-round
        uniform plan."""
        result = self.slices.get((*key, round_index))
        if result is None and round_index == 0 and key not in self.sliced:
            result = self.cells.get(key)
        return result


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

        The campaign runs in allocation rounds (see
        :mod:`repro.harness.allocator`); ``config.allocator=None`` is one
        round of the uniform allocator, recorded as whole cells.

        With ``store`` set (a :class:`~repro.harness.store.CorpusStore` or a
        path opened as one), every cell or round slice is recorded durably
        as it completes and work already in the store is skipped — so a
        killed serial campaign resumes through the same ledger parallel
        ones use, and converges to the same bits.
        """
        from repro.harness.allocator import AllocationRun, UniformAllocator, slice_seed

        config = self.config
        single_pass = config.allocator is None
        for tool in tools:
            if config.sanitizers:
                tool.sanitizers = tuple(config.sanitizers)
            if config.verify_replays:
                tool.verify_replays = config.verify_replays
            if config.guard is not None:
                tool.guard = config.guard
        tool_by_name = {tool.name: tool for tool in tools}
        program_by_name = {program.name: program for program in programs}
        specs = [(tool.name, tool.deterministic) for tool in tools]
        program_names = [program.name for program in programs]
        cells = campaign_cells(config, specs, program_names)
        store, owned = open_store(store)
        try:
            header = campaign_header(config, [name for name, _ in specs], program_names)
            stored = StoredWork(store, header, cells)
            run_state = AllocationRun(
                config.allocator or UniformAllocator(), cells, config.base_seed
            )
            while (plan := run_state.next_plan()) is not None:
                round_index = run_state.round_index
                round_results: dict[tuple[str, str, int], BugSearchResult] = {}
                for key in sorted(plan):
                    result = stored.get(key, round_index)
                    if result is None:
                        tool_name, program_name, trial = key
                        if progress is not None:
                            progress(tool_name, program_name, trial)
                        seed = slice_seed(config.base_seed, trial, round_index)
                        result = tool_by_name[tool_name].find_bug(
                            program_by_name[program_name], plan[key], seed
                        )
                        # Tools record the seed in the trial field by default;
                        # stamp the trial index so serial, parallel and resumed
                        # campaigns produce bit-identical results.
                        result = replace(result, trial=trial)
                        if store is not None:
                            if single_pass:
                                store.record_result(result)
                            else:
                                store.record_slice(round_index, result)
                    round_results[key] = result
                run_state.observe(plan, round_results)
            merged = run_state.merged()
            if store is not None and not single_pass:
                # Slices are in the store; add each cell's merged record.
                already = store.completed()
                for key in sorted(merged):
                    if key not in already:
                        store.record_result(merged[key])
            outcome = assemble_result(config, specs, program_names, merged)
            if not single_pass:
                outcome.allocation = run_state.ledger()
            return outcome
        finally:
            if owned:
                store.close()
