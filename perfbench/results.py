"""Checks, per-command outcomes and the result digests shared by the timed
and the traced run."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from perfbench import digest as dg
from perfbench import measure
from perfbench.workloads import Command

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_DIGESTS = ROOT / "perfbench" / "expected_digests.json"
#: Scratch space inside the checkout (work directories, run records).
STATE = ROOT / ".perfbench"


class Checks:
    """Every correctness check of a run; a failure fails the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


@dataclass
class Outcome:
    """What one command produced, however it was run."""

    cmd: Command
    code: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    cells: list = field(default_factory=list)
    schedules: int = 0
    telemetry: list = field(default_factory=list)


@dataclass
class PassResult:
    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cells(self) -> list:
        return sorted((c for o in self.outcomes for c in o.cells), key=repr)

    @property
    def schedules(self) -> int:
        return sum(o.schedules for o in self.outcomes)

    @property
    def digest(self) -> str:
        return dg.digest(self.cells)


def _store_cells(kind: str, path: str) -> list:
    from repro.harness.store import CorpusStore

    with CorpusStore(path, readonly=True) as store:
        return dg.result_cells(kind, store.completed().values())


def evaluate(out: Outcome, checks: Checks, tables: dict, objects: dict | None = None) -> None:
    """Check one command's output and extract its cells.

    ``objects`` holds result objects an in-process pass captured (a
    ``CampaignResult``, ``FuzzReport`` or ``BugSearchResult``); where one
    is present the cells come from it instead of the program's files and
    output.
    """
    from repro.harness.telemetry import validate_jsonl

    cmd = out.cmd
    label = f"{cmd.kind} {cmd.program or ''}".strip()
    if not checks.check(out.code == 0, f"{label}: exit {out.code}: {out.stderr.strip()[-300:]}"):
        return
    if cmd.telemetry:
        try:
            out.telemetry = validate_jsonl(cmd.telemetry)
        except ValueError as exc:
            checks.check(False, f"{label}: telemetry rejected by validate_jsonl: {exc}")
            return
        checks.check(True, "telemetry valid")
        ends = [r for r in out.telemetry if r["event"] == "cell_end"]
        out.schedules = sum(r["executions"] for r in ends)
        errors = [r for r in out.telemetry if r["event"] == "cell_error"]
        checks.check(not errors, f"{label}: {len(errors)} failed cell(s)")
    if cmd.kind in ("campaign", "campaign-forkserver"):
        captured = (objects or {}).get("harness.parallel.run")
        if captured:
            (result,) = captured
            out.cells = dg.campaign_cells(cmd.kind, result)
        elif cmd.store:
            out.cells = _store_cells(cmd.kind, cmd.store)
        else:
            out.cells = dg.telemetry_cells(cmd.kind, out.telemetry)
        tables[cmd.kind] = dg.result_tables(out.stdout)
        if cmd.all_found:
            missed = [c for c in out.cells if not c[4]]
            checks.check(not missed, f"{label}: no bug in {missed[:3]}")
    elif cmd.kind == "resume":
        checks.check(dg.result_tables(out.stdout) == tables.get("campaign"),
                     f"{label}: resumed result tables differ from the finished campaign's")
        ran = [r for r in out.telemetry if r["event"] == "campaign_end"]
        checks.check(len(ran) == 1 and ran[0]["executions"] == 0 and out.schedules == 0,
                     f"{label}: resume of a finished store ran schedules")
    elif cmd.kind == "store-verify":
        checks.check("verify: ok" in out.stdout, f"{label}: store verify did not report ok")
    elif cmd.kind in ("fuzz", "run"):
        try:
            cell = _object_cell(cmd, objects or {})
            if cell is not None:
                out.cells = [cell]
            elif cmd.kind == "fuzz":
                out.cells = [dg.fuzz_cell(out.stdout, cmd.program, cmd.seed)]
            else:
                out.cells = [dg.run_cell(out.stdout, cmd.program, cmd.seed)]
        except ValueError as exc:
            checks.check(False, f"{label}: {exc}")
            return
        out.schedules = out.cells[0][6]
        checks.check(out.cells[0][4], f"{label}: expected bug not reported")


def _object_cell(cmd: Command, objects: dict) -> tuple | None:
    """The cell of a fuzz/run command from its captured result object."""
    if cmd.kind == "fuzz" and objects.get("core.fuzz"):
        report = objects["core.fuzz"][0]
        at = report.first_crash_at
        return ("fuzz", "RFF", cmd.program, cmd.seed, at is not None, at, report.executions)
    if cmd.kind != "run" or not objects.get("harness.tools.find_bug"):
        return None
    result = objects["harness.tools.find_bug"][0]
    return ("run", result.tool, cmd.program, cmd.seed, result.found, result.schedules_to_bug,
            result.executions)


def run_fresh(commands: list[Command], checks: Checks,
              before: Callable[[int], None] | None = None) -> PassResult:
    """One pass: every command as a fresh interpreter, back to back.
    ``before(i)`` is called before the ``i``-th command starts."""
    tables: dict = {}
    outcomes = []
    for index, cmd in enumerate(commands):
        if before is not None:
            before(index)
        done = measure.run_process(list(cmd.argv), ROOT)
        out = Outcome(cmd, done.code, done.stdout, done.stderr, done.wall_s, done.cpu_s,
                      done.rss_mb)
        evaluate(out, checks, tables)
        outcomes.append(out)
    return PassResult(outcomes)


def cross_checks(workload: str, quick: bool, passes: list[PassResult], checks: Checks) -> str:
    """Same digest in every pass, and the checked-in digest.  The workload
    seed only orders the inputs, so every seed must reproduce it; quick
    sizes have no checked-in digest."""
    first = passes[0].digest
    for index, result in enumerate(passes[1:], start=2):
        checks.check(result.digest == first, f"pass {index} digest differs from pass 1")
    if workload == "cold":
        by_kind: dict[str, list] = {}
        for cell in passes[0].cells:
            if cell[0].startswith("campaign"):
                by_kind.setdefault(cell[0], []).append(cell[1:])
        checks.check(by_kind.get("campaign") == by_kind.get("campaign-forkserver"),
                     "fork and forkserver campaigns disagree on results")
    if not quick:
        expected = json.loads(EXPECTED_DIGESTS.read_text()).get(workload)
        checks.check(expected == first, f"digest {first[:12]} != checked-in {str(expected)[:12]}")
    return first
