"""Per-cell results of each command, and the digest a workload is held to.

A cell is ``(command kind, tool, program, trial, found, schedules_to_bug,
executions)``.  Cells come from results, never from a formatted table:

* single-pass campaigns: the telemetry ``cell_end`` records.  Every tool
  stops at its first bug, so a found cell's schedules-to-bug is its
  execution count (the traced run, which reads the ``CampaignResult``
  objects themselves, checks this);
* allocated campaigns: the merged cell records of the durable store;
* ``rff fuzz`` / ``rff run``: the numeric result fields of their output
  (``schedules executed`` / ``first crash at``; ``bug ... at schedule K
  after N schedules``), which is all a fresh process reports.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Iterable

Cell = tuple  # (kind, tool, program, trial, found, schedules_to_bug, executions)


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def telemetry_cells(kind: str, records: Iterable[dict[str, Any]]) -> list[Cell]:
    cells = []
    for record in records:
        if record["event"] == "cell_end":
            found = bool(record["found"])
            executions = int(record["executions"])
            cells.append((kind, record["tool"], record["program"], int(record["trial"]),
                          found, executions if found else None, executions))
    return sorted(cells, key=repr)


def result_cells(kind: str, results: Iterable[Any]) -> list[Cell]:
    """Cells of ``BugSearchResult`` objects (store records or a campaign)."""
    return sorted(
        ((kind, r.tool, r.program, int(r.trial), bool(r.found), r.schedules_to_bug, r.executions)
         for r in results),
        key=repr,
    )


def campaign_cells(kind: str, campaign: Any) -> list[Cell]:
    """Cells of a ``CampaignResult`` (trial = position in the trial list)."""
    return sorted(
        ((kind, tool, program, trial, bool(r.found), r.schedules_to_bug, r.executions)
         for (tool, program), trials in campaign.results.items()
         for trial, r in enumerate(trials)),
        key=repr,
    )


_FUZZ_EXECUTED = re.compile(r"^schedules executed:\s+(\d+)$", re.M)
_FUZZ_FIRST = re.compile(r"^first crash at:\s+(\d+|None)$", re.M)
_RUN_LINE = re.compile(
    r"^(\S+) on (\S+): (?:bug \([^)]*\) at schedule (\d+)|no bug) after (\d+) schedules$", re.M
)


def fuzz_cell(stdout: str, program: str, seed: int) -> Cell:
    executed = _FUZZ_EXECUTED.search(stdout)
    first = _FUZZ_FIRST.search(stdout)
    if executed is None or first is None:
        raise ValueError("rff fuzz output has no 'schedules executed'/'first crash at' line")
    at = None if first.group(1) == "None" else int(first.group(1))
    return ("fuzz", "RFF", program, seed, at is not None, at, int(executed.group(1)))


def run_cell(stdout: str, program: str, seed: int) -> Cell:
    match = _RUN_LINE.search(stdout)
    if match is None or match.group(2) != program:
        raise ValueError(f"rff run output has no result line for {program}")
    at = None if match.group(3) is None else int(match.group(3))
    return ("run", match.group(1), program, seed, at is not None, at, int(match.group(4)))


def digest(cells: Iterable[Cell]) -> str:
    payload = json.dumps(sorted((list(c) for c in cells), key=repr), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def result_tables(stdout: str) -> list[str]:
    """The result blocks of a campaign's output: every blank-line separated
    block except the wall-clock throughput block, which a resume replaying
    finished cells legitimately reports differently."""
    blocks = [block for block in stdout.strip().split("\n\n") if block.strip()]
    return [block for block in blocks if not block.startswith("Campaign throughput")]
