"""Experiment harness: tools, campaigns, statistics and report rendering.

The public names below load on first use (PEP 562): ``from repro.harness
import Campaign`` imports :mod:`repro.harness.campaign` and nothing else,
so an ``rff`` command or a pool worker pays only for the submodules it
runs.  ``_EXPORTS`` maps each name to the submodule that defines it.
"""

from __future__ import annotations

from importlib import import_module

_EXPORTS = {
    "Campaign": "campaign",
    "CampaignConfig": "campaign",
    "CampaignResult": "campaign",
    "campaign_header": "campaign",
    "CorpusStore": "store",
    "StoreError": "store",
    "StoreInspection": "store",
    "StoreLockedError": "store",
    "StoreMismatchError": "store",
    "SupervisedCampaign": "supervisor",
    "APPENDIX_B_ORDER": "reporting",
    "RfDistribution": "reporting",
    "appendix_b_table": "reporting",
    "figure4_ascii": "reporting",
    "figure4_series": "reporting",
    "figure5_ascii": "reporting",
    "rf_distribution_pos": "reporting",
    "rf_distribution_rff": "reporting",
    "sanitizer_summary": "reporting",
    "significance_summary": "reporting",
    "store_summary": "reporting",
    "throughput_summary": "reporting",
    "crash_from_dict": "persist",
    "crash_to_dict": "persist",
    "load_crash": "persist",
    "load_json": "persist",
    "read_jsonl": "persist",
    "recover_jsonl": "persist",
    "report_to_dict": "persist",
    "result_from_dict": "persist",
    "result_to_dict": "persist",
    "save_crashes": "persist",
    "save_json": "persist",
    "schedule_from_dict": "persist",
    "schedule_to_dict": "persist",
    "trace_from_dict": "persist",
    "trace_to_dict": "persist",
    "GLOBAL_COUNTERS": "telemetry",
    "Counters": "telemetry",
    "JsonlSink": "telemetry",
    "MultiSink": "telemetry",
    "SinkLockedError": "telemetry",
    "TelemetryAggregator": "telemetry",
    "TelemetrySink": "telemetry",
    "validate_jsonl": "telemetry",
    "validate_record": "telemetry",
    "LogRankResult": "stats",
    "SummaryCell": "stats",
    "logrank": "stats",
    "logrank_direction": "stats",
    "mann_whitney_u": "stats",
    "summarize": "stats",
    "CampaignError": "parallel",
    "CellSpec": "parallel",
    "ParallelCampaign": "parallel",
    "register_tool": "parallel",
    "BugSearchResult": "tools",
    "GenMcTool": "tools",
    "PeriodTool": "tools",
    "PerExecutionPolicyTool": "tools",
    "RffTool": "tools",
    "TestingTool": "tools",
    "muzz_tool": "tools",
    "paper_tools": "tools",
    "pct_tool": "tools",
    "pos_tool": "tools",
    "qlearning_tool": "tools",
    "random_tool": "tools",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    submodule = _EXPORTS.get(name)
    if submodule is None:
        # AttributeError (not KeyError) lets ``from repro.harness import
        # faults`` fall through to importing the submodule itself.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
