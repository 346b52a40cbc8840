"""Parallel campaigns: every cell's slices through the worker pool.

The paper runs its experiments with GNU Parallel over up to 50 cores
(Appendix A.2); this module provides the same scale-out for our campaigns:
the (tool, program, trial) cells of a campaign are independent, so they map
cleanly onto worker processes.  Results are bit-identical to the serial
:class:`~repro.harness.campaign.Campaign` — each slice derives its seed the
same way — so parallelism is purely a wall-clock optimisation.

A :class:`ParallelCampaign` plans, records and resumes; the
:class:`~repro.harness.pool.WorkerPool` executes.  A single-pass campaign
is one round of :class:`~repro.harness.allocator.UniformAllocator`; an
adaptive allocator plans further rounds, and every round's missing slices
go through the same pool, so every guarantee below holds per slice:

* **crash isolation** — a worker that dies (segfault model: hard exit, OOM
  kill, SIGKILL) costs one attempt of the slice it was running, not the
  campaign; that slice is replayed alone on a fresh worker up to
  ``max_retries`` times and, if it keeps failing, recorded as a structured
  error result (``isolate_failures``) instead of aborting everything.  The
  slices queued behind it in the same batch are requeued uncharged;
* **per-slice timeouts** — a worker that makes no progress for
  ``cell_timeout`` seconds is killed and handled like a crash;
* **graceful degradation** — ``processes=0`` runs every slice in-process,
  and if worker processes cannot be started at all the pool falls back to
  in-process execution of the remaining slices rather than failing;
* **durable resume** — with ``store`` set, every completed cell (or
  allocation-round slice) is recorded in the
  :class:`~repro.harness.store.CorpusStore`, the campaign's one durable
  record; re-running the same campaign against that store skips completed
  work and still produces a bit-identical
  :class:`~repro.harness.campaign.CampaignResult`;
* **telemetry** — every lifecycle step (cell start/end/retry/error, worker
  start/exit, degradation) is emitted into a
  :class:`~repro.harness.telemetry.TelemetrySink`; ``campaign_end`` is the
  last record, after every worker has exited.

Tool factories cross the process boundary *by importable reference*
(``"module:qualname"`` strings carried in the cell spec), never through a
module-global registry alone — so custom tools registered with
:func:`register_tool` work under the ``spawn`` start method too, where
workers do not inherit the parent's registrations.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ClassVar

from repro.harness.campaign import (
    CampaignConfig,
    CampaignResult,
    StoredWork,
    assemble_result,
    campaign_cells,
    campaign_header,
    open_store,
)
from repro.harness.pool import CellOutcome, CellSpec, WorkerPool, resolve_ref
from repro.harness.telemetry import TelemetrySink
from repro.harness.tools import BugSearchResult, TestingTool


class CampaignError(RuntimeError):
    """A campaign cell failed and ``isolate_failures`` is off."""


# ----------------------------------------------------------------------
# Tool factory registry (resolved in workers by importable reference)
# ----------------------------------------------------------------------
_TOOL_FACTORIES: dict[str, Callable[[], TestingTool]] = {}


def factory_ref(factory: Callable[[], TestingTool]) -> str:
    """The spawn-safe importable reference of a tool factory.

    Raises ``ValueError`` for factories a fresh worker process could not
    re-import (lambdas, closures, instance methods): those used to *silently*
    fall back to default tools in spawned workers — now they fail loudly at
    registration time.
    """
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if not module or not qualname:
        raise ValueError(
            f"tool factory {factory!r} is not an importable module-level callable; "
            "parallel workers resolve factories by 'module:qualname' reference"
        )
    ref = f"{module}:{qualname}"
    try:
        resolved = resolve_ref(ref)
    except (ImportError, AttributeError, ValueError) as exc:
        raise ValueError(f"tool factory reference {ref!r} does not resolve: {exc}") from exc
    if resolved is not factory:
        raise ValueError(
            f"tool factory reference {ref!r} resolves to a different object; "
            "register a module-level function or class"
        )
    return ref


def register_tool(name: str, factory: Callable[[], TestingTool]) -> None:
    """Register a custom tool factory for parallel campaigns.

    The factory must be a module-level callable (validated eagerly) so that
    worker processes under any start method — including ``spawn``, which
    inherits nothing — can re-import it from its cell spec reference.
    """
    factory_ref(factory)  # validate now, not inside a worker
    _TOOL_FACTORIES[name] = factory


def _register_default_factories() -> None:
    from repro.harness.tools import (
        GenMcTool,
        PeriodTool,
        RffTool,
        muzz_tool,
        pct_tool,
        pos_tool,
        qlearning_tool,
        random_tool,
    )

    _TOOL_FACTORIES.setdefault("RFF", RffTool)
    _TOOL_FACTORIES.setdefault("POS", pos_tool)
    _TOOL_FACTORIES.setdefault("PCT3", pct_tool)
    _TOOL_FACTORIES.setdefault("PERIOD", PeriodTool)
    _TOOL_FACTORIES.setdefault("GenMC", GenMcTool)
    _TOOL_FACTORIES.setdefault("QLearning RF", qlearning_tool)
    _TOOL_FACTORIES.setdefault("Random", random_tool)
    _TOOL_FACTORIES.setdefault("MUZZ-like", muzz_tool)


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
@dataclass
class ParallelCampaign:
    """A fault-tolerant campaign over named tools/programs, executed by the
    worker pool.

    ``processes=0`` runs every slice in-process (the degraded-pool code
    path, also useful for debugging); ``processes=None`` uses the CPU
    count.  ``max_retries`` bounds *extra* attempts after a worker crash or
    timeout; in-worker Python exceptions are deterministic and are not
    retried.
    """

    config: CampaignConfig
    processes: int | None = None
    #: Seconds a worker may run a slice without progress before it is killed.
    cell_timeout: float | None = None
    #: Extra attempts (on a fresh worker each) after crash/timeout.
    max_retries: int = 2
    #: Record exhausted cells as structured error results instead of raising.
    isolate_failures: bool = True
    telemetry: TelemetrySink = field(default_factory=TelemetrySink)
    #: Multiprocessing start method (None = see _default_start_method).
    start_method: str | None = None
    #: Importable fault-injection hook called before every slice.
    fault_hook: str | None = None
    #: Durable corpus store (CorpusStore instance or path); completed cells
    #: are recorded there and resumed from it.
    store: Any = None
    #: Maximum slices per pooled batch (None = pool default).
    batch_size: int | None = None
    #: Directory for per-worker cProfile dumps (None = profiling off);
    #: summarize with reporting.profile_summary.
    profile_dir: str | Path | None = None

    #: Worker supervision (heartbeat period, lease); off here, constructor
    #: fields of SupervisedCampaign.
    heartbeat_seconds: ClassVar[float | None] = None
    lease_seconds: ClassVar[float | None] = None

    # -- public API -----------------------------------------------------
    def run(self, tool_names: list[str], program_names: list[str]) -> CampaignResult:
        """Run all campaign cells; the result is bit-identical to serial runs.

        A single-pass campaign (``allocator=None``) is one round of the
        uniform allocator.  It differs from an allocated one only in what
        it records: whole cells rather than round slices, no ``alloc_*``
        events, and no allocation ledger.
        """
        from repro.harness.allocator import AllocationRun, UniformAllocator, slice_seed

        _register_default_factories()
        sink = self.telemetry
        allocator = self.config.allocator
        single_pass = allocator is None
        specs, refs = self._resolve_tools(tool_names)
        cells = campaign_cells(self.config, specs, program_names)
        # Built before the store opens: the constructor starts no process,
        # and a bad start method or profile_dir leaves no store to close.
        pool = WorkerPool(self, mp.get_context(self.start_method or _default_start_method()))
        store, store_owned = open_store(self.store)
        try:
            header = campaign_header(self.config, tool_names, program_names)
            stored = StoredWork(store, header, cells)
            run_state = AllocationRun(
                allocator or UniformAllocator(), cells, self.config.base_seed
            )
            start = time.perf_counter()
            sink.emit(
                "campaign_start",
                tools=list(tool_names),
                programs=list(program_names),
                trials=self.config.trials,
                total_cells=len(cells),
                resumed_cells=stored.resumed_cells(),
                processes=self._process_count(),
            )
            stats = {"retries": 0, "failed": 0, "executions": 0}
            while (plan := run_state.next_plan()) is not None:
                round_index = run_state.round_index
                estimates = run_state.estimates()
                if not single_pass:
                    sink.emit(
                        "alloc_round",
                        allocator=allocator.name,
                        round=round_index,
                        budget=sum(plan.values()),
                        cells=len(plan),
                    )
                round_results: dict[tuple[str, str, int], BugSearchResult] = {}
                recorder = self._make_recorder(
                    round_results, stats, store, None if single_pass else round_index
                )
                pending: list[CellSpec] = []
                for key in sorted(plan):
                    tool_name, program_name, trial = key
                    if not single_pass:
                        sink.emit(
                            "alloc_estimate",
                            allocator=allocator.name,
                            round=round_index,
                            tool=tool_name,
                            program=program_name,
                            trial=trial,
                            allocated=plan[key],
                            estimate=estimates.get(key),
                        )
                    result = stored.get(key, round_index)
                    if result is not None:
                        round_results[key] = result
                        continue
                    pending.append(
                        CellSpec(
                            tool=tool_name,
                            program=program_name,
                            trial=trial,
                            seed=slice_seed(self.config.base_seed, trial, round_index),
                            budget=plan[key],
                            factory_ref=refs[tool_name],
                        )
                    )
                #: Failure kinds of every lost attempt per slice of this
                #: round, for triage.
                self._failure_kinds: dict[tuple[str, str, int], list[str]] = {}
                # The pool persists across rounds (worker caches amortize
                # over the whole campaign).
                pool.execute(pending, recorder, stats)
                run_state.observe(plan, round_results)
            merged = run_state.merged()
            if store is not None and not single_pass:
                # Slices are in the store; add each cell's merged record.
                already = store.completed()
                for key in sorted(merged):
                    if key not in already:
                        store.record_result(merged[key])
            # Every worker exits before campaign_end, the stream's last record.
            pool.close()
            wall_time = time.perf_counter() - start
            sink.emit(
                "campaign_end",
                wall_time=wall_time,
                cells=len(merged),
                failed_cells=stats["failed"],
                retries=stats["retries"],
                executions=stats["executions"],
                schedules_per_sec=stats["executions"] / wall_time if wall_time > 0 else 0.0,
            )
            outcome = assemble_result(self.config, specs, program_names, merged)
            if not single_pass:
                outcome.allocation = run_state.ledger()
            return outcome
        finally:
            pool.close()  # abort path: leak no workers
            if store_owned:
                store.close()

    def _resolve_tools(self, tool_names: list[str]):
        """(name, deterministic) per tool, plus each tool's factory reference
        for spec building."""
        specs: list[tuple[str, bool]] = []
        refs: dict[str, str] = {}
        for tool_name in tool_names:
            if tool_name not in _TOOL_FACTORIES:
                raise KeyError(f"unknown tool {tool_name!r}; known: {sorted(_TOOL_FACTORIES)}")
            factory = _TOOL_FACTORIES[tool_name]
            refs[tool_name] = factory_ref(factory)
            specs.append((tool_name, factory().deterministic))
        return specs, refs

    def _process_count(self) -> int:
        if self.processes is None:
            return os.cpu_count() or 1
        return self.processes

    # -- result recording ----------------------------------------------
    def _make_recorder(
        self,
        completed: dict[tuple[str, str, int], BugSearchResult],
        stats: dict[str, int],
        store=None,
        slice_round: int | None = None,
    ) -> Callable[[CellSpec, int, CellOutcome | None, BugSearchResult], None]:
        sink = self.telemetry

        def record(
            spec: CellSpec, attempt: int, outcome: CellOutcome | None, result: BugSearchResult
        ) -> None:
            completed[spec.key] = result
            if store is not None:
                if slice_round is None:
                    store.record_result(result)
                else:
                    store.record_slice(slice_round, result)
            if outcome is not None:
                stats["executions"] += outcome.result.executions
                # The executor-level counter delta also counts executions;
                # the result's own count is the authoritative cell figure.
                counters = {k: v for k, v in outcome.counters.items() if k != "executions"}
                sink.emit(
                    "cell_end",
                    tool=spec.tool,
                    program=spec.program,
                    trial=spec.trial,
                    attempt=attempt,
                    wall_time=outcome.wall_time,
                    executions=outcome.result.executions,
                    schedules_per_sec=(
                        outcome.result.executions / outcome.wall_time
                        if outcome.wall_time > 0
                        else 0.0
                    ),
                    found=outcome.result.found,
                    **counters,
                )
                for report in outcome.result.sanitizer_reports:
                    sink.emit(
                        "sanitizer_report",
                        tool=spec.tool,
                        program=spec.program,
                        trial=spec.trial,
                        sanitizer=report.sanitizer,
                        kind=report.kind,
                        location=report.location,
                        pair=list(report.pair),
                    )

        return record

    def _fail(
        self,
        spec: CellSpec,
        attempts: int,
        kind: str,
        detail: str,
        recorder,
        stats: dict[str, int],
    ) -> None:
        stats["failed"] += 1
        self.telemetry.emit(
            "cell_error",
            tool=spec.tool,
            program=spec.program,
            trial=spec.trial,
            attempts=attempts,
            kind=kind,
            detail=detail,
        )
        if not self.isolate_failures:
            raise CampaignError(
                f"cell {spec.tool}/{spec.program} trial {spec.trial} failed ({kind}): {detail}"
            )
        recorder(
            spec,
            attempts,
            None,
            BugSearchResult(
                tool=spec.tool,
                program=spec.program,
                trial=spec.trial,
                found=False,
                schedules_to_bug=None,
                executions=0,
                outcome=None,
                error=f"{kind} after {attempts} attempt(s): {detail}",
            ),
        )


def _default_start_method() -> str:
    """Prefer ``forkserver`` on 3.12+ (fork-from-threaded-parent is deprecated
    there and the server process keeps launches cheap and thread-safe); keep
    ``fork`` on older interpreters where it is still the fastest safe default.
    Workers re-apply the parent's ``RFF_*`` env either way, so fault-injection
    behaviour is identical across start methods."""
    methods = mp.get_all_start_methods()
    if sys.version_info >= (3, 12) and "forkserver" in methods:
        return "forkserver"
    return "fork" if "fork" in methods else "spawn"
