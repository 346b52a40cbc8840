"""Which public calls of ``repro`` are traced, and the per-layer metrics.

Span names are ``<layer>.<boundary>``; a layer's self time is the summed
self time of its spans.  Counts that live in return values (steps of an
execution, bugs of a search, replays of a verification) are gathered by
hooks on the same spans, so every ratio is measured where the work
happens.
"""

from __future__ import annotations

import importlib
import multiprocessing.process
import os
import sys
from collections import Counter
from typing import Any

from perfbench.spans import Patcher, SpanRecorder, durations, self_times

#: Modules whose classes and functions the traced pass wraps.
MODULES = (
    "repro.cli", "repro.bench.registry", "repro.runtime.executor", "repro.schedulers.base",
    "repro.schedulers.pct", "repro.schedulers.pos", "repro.schedulers.random_walk",
    "repro.schedulers.replay", "repro.core.fuzzer", "repro.core.mutation", "repro.core.feedback",
    "repro.core.proactive", "repro.core.reproduce", "repro.analysis.online",
    "repro.substrate.gate", "repro.harness.tools", "repro.harness.allocator",
    "repro.harness.parallel", "repro.harness.supervisor", "repro.harness.pool",
    "repro.harness.store", "repro.harness.telemetry", "repro.harness.reporting",
)


class Capture:
    """Counts and result objects gathered by span hooks during one pass."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        #: span name -> return values of its calls, for result digests.
        self.results: dict[str, list[Any]] = {}
        #: AllocationRun id -> (cells, slices of its latest plan).
        self.allocation_runs: dict[int, tuple[int, int]] = {}

    def keep(self, name: str):
        def hook(args, result):
            self.results.setdefault(name, []).append(result)
        return hook


def load() -> dict[str, Any]:
    return {name: importlib.import_module(name) for name in MODULES}


def _repro_modules() -> list[Any]:
    return [m for n, m in list(sys.modules.items()) if n.startswith("repro") and m is not None]


def install_campaign_boundary(patcher: Patcher, capture: Capture) -> None:
    """The light instrumentation: one span per campaign run (plus the
    result object, for the digest).  Cheap enough to leave on in the
    untraced pass."""
    mods = load()
    patcher.methods(mods["repro.harness.parallel"].ParallelCampaign, ["run"],
                    lambda cls, attr: "harness.parallel.run", capture.keep("harness.parallel.run"))


def install_workers(patcher: Patcher) -> None:
    """Parent-side worker start-up, whatever engine starts the workers."""
    patcher.methods(multiprocessing.process.BaseProcess, ["start"],
                    lambda cls, attr: "harness.parallel.worker_start")


def install_layers(patcher: Patcher, capture: Capture) -> None:
    """Spans around the public calls into every layer."""
    mods = load()
    every = _repro_modules()
    counts = capture.counts

    def count(key: str, of) -> Any:
        def hook(args, result):
            counts[key] += of(args, result)
        return hook

    patcher.function(mods["repro.bench.registry"], "get", "bench.get", modules=every)

    patcher.methods(mods["repro.runtime.executor"].Executor, ["run"],
                    lambda cls, attr: "runtime.run",
                    count("runtime.steps", lambda a, r: r.steps))

    def policy_span(cls: type, attr: str) -> str:
        if cls.__module__.startswith("repro.core"):
            return "core.proactive"
        return f"schedulers.{attr}"

    patcher.methods(mods["repro.schedulers.base"].SchedulerPolicy, ["choose", "notify"],
                    policy_span)

    fuzzer = mods["repro.core.fuzzer"]

    def fuzz_hook(args, report):
        counts["core.executions"] += report.executions
        counts["core.signatures"] += report.unique_signatures
        capture.results.setdefault("core.fuzz", []).append(report)

    patcher.methods(fuzzer.RffFuzzer, ["run"], lambda cls, attr: "core.fuzz", fuzz_hook)
    mutation = mods["repro.core.mutation"]
    patcher.methods(mutation.ScheduleMutator, ["mutate", "splice"],
                    lambda cls, attr: "core.mutate")
    patcher.methods(mutation.EventPool, ["observe"], lambda cls, attr: "core.mutate")
    patcher.methods(mods["repro.core.feedback"].RfFeedback, ["observe"],
                    lambda cls, attr: "core.feedback")

    def verify_hook(args, verdict):
        counts["core.reproduce.replays"] += verdict.replays
        counts["core.reproduce.stable"] += int(verdict.stable)

    patcher.function(mods["repro.core.reproduce"], "verify_replay", "core.reproduce.verify",
                     verify_hook, modules=every)

    sanitizer = mods["repro.analysis.online"].Sanitizer
    patcher.methods(sanitizer, ["on_event", "on_thread_start", "on_thread_exit"],
                    lambda cls, attr: f"analysis.{attr}")
    patcher.methods(sanitizer, ["finish"], lambda cls, attr: "analysis.finish",
                    count("analysis.reports", lambda a, r: len(r)))

    gate = mods["repro.substrate.gate"]
    patcher.methods(gate.SubstrateContext, ["activate", "finalize"],
                    lambda cls, attr: f"substrate.{attr}")
    patcher.methods(gate.OpChannel, ["next_message", "resume"],
                    lambda cls, attr: "substrate.gate")

    def tool_hook(args, result):
        counts["harness.tools.bugs"] += int(result.found)
        counts["harness.tools.executions"] += result.executions
        capture.results.setdefault("harness.tools.find_bug", []).append(result)

    patcher.methods(mods["repro.harness.tools"].TestingTool, ["find_bug"],
                    lambda cls, attr: "harness.tools.find_bug", tool_hook)

    allocator = mods["repro.harness.allocator"]
    patcher.methods(allocator.BudgetAllocator, ["plan", "estimates"],
                    lambda cls, attr: f"harness.allocator.{attr}")

    def plan_hook(args, plan):
        run = args[0]
        if plan is not None:
            counts["harness.allocator.slices"] += len(plan)
            capture.allocation_runs[id(run)] = (len(run.cells), len(plan))

    patcher.methods(allocator.AllocationRun, ["next_plan"],
                    lambda cls, attr: "harness.allocator.next_plan", plan_hook)
    patcher.methods(allocator.AllocationRun, ["observe", "merged", "ledger"],
                    lambda cls, attr: "harness.allocator.run")

    install_campaign_boundary(patcher, capture)

    store = mods["repro.harness.store"].CorpusStore
    patcher.methods(store, ["record_result", "record_slice"],
                    lambda cls, attr: "harness.store.append")
    patcher.methods(store, ["__init__", "completed", "completed_slices", "header", "inspect",
                            "verify"],
                    lambda cls, attr: "harness.store.read")
    patcher.function(os, "fsync", "harness.store.fsync")

    telemetry = mods["repro.harness.telemetry"]
    patcher.methods(telemetry.TelemetrySink, ["emit"],
                    lambda cls, attr: ("harness.telemetry.write" if cls is telemetry.JsonlSink
                                       else "harness.telemetry.emit"))

    reporting = mods["repro.harness.reporting"]
    for attr, value in list(vars(reporting).items()):
        if callable(value) and getattr(value, "__module__", None) == reporting.__name__ \
                and not attr.startswith("_") and not isinstance(value, type):
            patcher.function(reporting, attr, "harness.reporting", modules=every)


def _self(selfs: dict[str, float], prefix: str) -> float:
    return sum(v for k, v in selfs.items() if k == prefix or k.startswith(prefix + "."))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder: SpanRecorder, capture: Capture) -> dict[str, float]:
    """Per-layer metrics of the fully traced in-process pass."""
    selfs, calls = self_times(recorder)
    c = capture.counts
    steps = c["runtime.steps"]
    choose = calls.get("schedulers.choose", 0)
    retired = sum(cells - last for cells, last in capture.allocation_runs.values())
    alloc_cells = sum(cells for cells, _ in capture.allocation_runs.values())
    verifies = calls.get("core.reproduce.verify", 0)
    return {
        "harness.reporting.self_s": _self(selfs, "harness.reporting"),
        "bench.get_calls": calls.get("bench.get", 0),
        "bench.get_s": _self(selfs, "bench.get"),
        "runtime.executions": calls.get("runtime.run", 0),
        "runtime.steps": steps,
        "runtime.self_s": _self(selfs, "runtime"),
        "runtime.us_per_step": 1e6 * _ratio(_self(selfs, "runtime"), steps),
        "schedulers.choose_calls": choose,
        "schedulers.self_s": _self(selfs, "schedulers"),
        "schedulers.us_per_choose": 1e6 * _ratio(_self(selfs, "schedulers"), choose),
        "core.fuzz_calls": calls.get("core.fuzz", 0),
        "core.self_s": _self(selfs, "core.fuzz"),
        "core.mutate_s": _self(selfs, "core.mutate"),
        "core.proactive_s": _self(selfs, "core.proactive"),
        "core.feedback_s": _self(selfs, "core.feedback"),
        "core.corpus_yield": _ratio(c["core.signatures"], c["core.executions"]),
        "core.reproduce.replays": c["core.reproduce.replays"],
        "core.reproduce.self_s": _self(selfs, "core.reproduce"),
        "core.reproduce.stable_frac": _ratio(c["core.reproduce.stable"], verifies),
        "analysis.events": calls.get("analysis.on_event", 0),
        "analysis.self_s": _self(selfs, "analysis"),
        "analysis.reports": c["analysis.reports"],
        "substrate.executions": calls.get("substrate.activate", 0),
        "substrate.self_s": _self(selfs, "substrate"),
        "harness.tools.find_bug_calls": calls.get("harness.tools.find_bug", 0),
        "harness.tools.self_s": _self(selfs, "harness.tools"),
        "harness.tools.bug_yield": _ratio(c["harness.tools.bugs"], c["harness.tools.executions"]),
        "harness.allocator.plan_calls": calls.get("harness.allocator.plan", 0),
        "harness.allocator.self_s": _self(selfs, "harness.allocator"),
        "harness.allocator.slices": c["harness.allocator.slices"],
        "harness.allocator.retired_frac": _ratio(retired, alloc_cells),
        "harness.store.appends": calls.get("harness.store.append", 0),
        "harness.store.append_s": _self(selfs, "harness.store.append"),
        "harness.store.fsyncs": calls.get("harness.store.fsync", 0),
        "harness.store.fsync_s": _self(selfs, "harness.store.fsync"),
        "harness.store.read_s": _self(selfs, "harness.store.read"),
        "harness.telemetry.emits": calls.get("harness.telemetry.write", 0),
        "harness.telemetry.self_s": _self(selfs, "harness.telemetry"),
    }


def worker_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Parent-side worker start-up of the real-worker pass."""
    starts = durations(recorder, "harness.parallel.worker_start")
    return {
        "harness.parallel.run_s": sum(durations(recorder, "harness.parallel.run")),
        "harness.parallel.workers_started": len(starts),
        "harness.parallel.worker_start_s": sum(starts),
    }
