"""JSON persistence for traces, crashes and campaign results.

The paper's artifact ships raw experiment data alongside the tool; this
module provides the same affordance — everything the harness produces can
be serialised to JSON, reloaded, and (for crashes) *re-executed*: a crash
record round-trips into a ReplayPolicy run that reproduces the failure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro.analysis.online import SanitizerReport
from repro.core.constraints import AbstractSchedule, Constraint
from repro.core.events import AbstractEvent, Event
from repro.core.fuzzer import CrashRecord, FuzzReport
from repro.core.trace import Trace
from repro.harness.tools import BugSearchResult

# ----------------------------------------------------------------------
# Events / traces
# ----------------------------------------------------------------------
def event_to_dict(event: Event) -> dict[str, Any]:
    out = {
        "eid": event.eid,
        "tid": event.tid,
        "kind": event.kind,
        "location": event.location,
        "loc": event.loc,
    }
    if event.rf is not None:
        out["rf"] = event.rf
    if isinstance(event.value, (int, float, str, bool)) or event.value is None:
        out["value"] = event.value
    else:
        out["value"] = repr(event.value)
    if isinstance(event.aux, (int, str)) or event.aux is None:
        out["aux"] = event.aux
    elif isinstance(event.aux, tuple):
        out["aux"] = list(event.aux)
    return out


def event_from_dict(data: dict[str, Any]) -> Event:
    aux = data.get("aux")
    if isinstance(aux, list):
        aux = tuple(aux)
    return Event(
        eid=data["eid"],
        tid=data["tid"],
        kind=data["kind"],
        location=data["location"],
        loc=data["loc"],
        rf=data.get("rf"),
        value=data.get("value"),
        aux=aux,
    )


def trace_to_dict(trace: Trace) -> dict[str, Any]:
    return {
        "events": [event_to_dict(e) for e in trace.events],
        "outcome": trace.outcome,
        "failure": trace.failure,
    }


def trace_from_dict(data: dict[str, Any]) -> Trace:
    return Trace(
        events=[event_from_dict(e) for e in data["events"]],
        outcome=data.get("outcome"),
        failure=data.get("failure"),
    )


# ----------------------------------------------------------------------
# Abstract schedules
# ----------------------------------------------------------------------
def _abstract_event_to_dict(event: AbstractEvent | None) -> dict[str, Any] | None:
    if event is None:
        return None
    return {"kind": event.kind, "location": event.location, "loc": event.loc}


def _abstract_event_from_dict(data: dict[str, Any] | None) -> AbstractEvent | None:
    if data is None:
        return None
    return AbstractEvent(kind=data["kind"], location=data["location"], loc=data["loc"])


def schedule_to_dict(schedule: AbstractSchedule) -> list[dict[str, Any]]:
    return [
        {
            "read": _abstract_event_to_dict(c.read),
            "write": _abstract_event_to_dict(c.write),
            "positive": c.positive,
        }
        for c in sorted(schedule.constraints, key=str)
    ]


def schedule_from_dict(data: list[dict[str, Any]]) -> AbstractSchedule:
    constraints = [
        Constraint(
            read=_abstract_event_from_dict(c["read"]),
            write=_abstract_event_from_dict(c["write"]),
            positive=c["positive"],
        )
        for c in data
    ]
    return AbstractSchedule(frozenset(constraints))


# ----------------------------------------------------------------------
# Crash records / fuzz reports
# ----------------------------------------------------------------------
def crash_to_dict(crash: CrashRecord) -> dict[str, Any]:
    out = {
        "execution_index": crash.execution_index,
        "outcome": crash.outcome,
        "failure": crash.failure,
        "abstract_schedule": schedule_to_dict(crash.abstract_schedule),
        "concrete_schedule": list(crash.concrete_schedule),
        "frames": list(crash.frames),
    }
    if crash.dedup_key is not None:
        out["dedup_key"] = list(crash.dedup_key)
    return out


def crash_from_dict(data: dict[str, Any]) -> CrashRecord:
    raw_key = data.get("dedup_key")
    return CrashRecord(
        execution_index=data["execution_index"],
        outcome=data["outcome"],
        failure=data["failure"],
        abstract_schedule=schedule_from_dict(data["abstract_schedule"]),
        concrete_schedule=tuple(data["concrete_schedule"]),
        dedup_key=tuple(raw_key) if raw_key is not None else None,
        frames=tuple(data.get("frames", ())),
    )


def report_to_dict(report: FuzzReport) -> dict[str, Any]:
    return {
        "program": report.program_name,
        "executions": report.executions,
        "corpus_size": report.corpus_size,
        "pair_coverage": report.pair_coverage,
        "unique_signatures": report.unique_signatures,
        "truncated_runs": report.truncated_runs,
        "crashes": [crash_to_dict(c) for c in report.crashes],
    }


def result_to_dict(result: BugSearchResult) -> dict[str, Any]:
    out = {
        "tool": result.tool,
        "program": result.program,
        "trial": result.trial,
        "found": result.found,
        "schedules_to_bug": result.schedules_to_bug,
        "executions": result.executions,
        "outcome": result.outcome,
        "error": result.error,
    }
    if result.sanitizer_reports:
        out["sanitizer_reports"] = [r.to_dict() for r in result.sanitizer_reports]
    if result.bucket is not None:
        out["bucket"] = result.bucket
    if result.replay_verdict is not None:
        out["replay_verdict"] = result.replay_verdict
    if result.new_signatures:
        out["new_signatures"] = result.new_signatures
    return out


def result_from_dict(data: dict[str, Any]) -> BugSearchResult:
    """Exact inverse of :func:`result_to_dict` — resumed campaign cells must
    compare equal to freshly computed ones."""
    return BugSearchResult(
        tool=data["tool"],
        program=data["program"],
        trial=data["trial"],
        found=data["found"],
        schedules_to_bug=data["schedules_to_bug"],
        executions=data["executions"],
        outcome=data.get("outcome"),
        error=data.get("error"),
        sanitizer_reports=tuple(
            SanitizerReport.from_dict(r) for r in data.get("sanitizer_reports", ())
        ),
        bucket=data.get("bucket"),
        replay_verdict=data.get("replay_verdict"),
        new_signatures=data.get("new_signatures", 0),
    )


# ----------------------------------------------------------------------
# File-level helpers
# ----------------------------------------------------------------------
def save_json(payload: Any, path: str | Path) -> Path:
    """Write any of the dict forms above to ``path`` (pretty-printed)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def load_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text())


def save_crashes(report: FuzzReport, directory: str | Path) -> list[Path]:
    """Persist every crash of a fuzz report as ``crash-NNN.json`` files."""
    base = Path(directory)
    written = []
    for index, crash in enumerate(report.crashes):
        payload = {"program": report.program_name, **crash_to_dict(crash)}
        written.append(save_json(payload, base / f"crash-{index:03d}.json"))
    return written


def load_crash(path: str | Path) -> tuple[str, CrashRecord]:
    """Load one persisted crash; returns (program name, crash record)."""
    data = load_json(path)
    return data["program"], crash_from_dict(data)


# ----------------------------------------------------------------------
# Append-only JSONL (corpus store segments, telemetry files)
# ----------------------------------------------------------------------
class TornLineError(ValueError):
    """A JSONL file contains an unparseable line the caller must not skip:
    either a torn *tail* with ``tolerate_torn_tail=False``, or a torn line
    in the *middle* of the file — which append-and-flush writers never
    produce, so it signals real corruption, not an interrupted write."""


def read_jsonl(path: str | Path, tolerate_torn_tail: bool = True) -> list[dict[str, Any]]:
    """Read a JSONL file written one flushed line per record.

    A killed writer can leave at most one torn line, and only at the end of
    the file.  With ``tolerate_torn_tail=True`` (the default, matching what
    store resume needs) that single trailing tear is skipped and
    counted in the ``torn_lines`` telemetry counter; an unparseable line
    anywhere *before* the last one always raises :class:`TornLineError`,
    because it cannot be explained by an interrupted append."""
    target = Path(path)
    if not target.exists():
        return []
    lines = [
        (number, line)
        for number, line in enumerate(target.read_text(encoding="utf-8").splitlines(), start=1)
        if line.strip()
    ]
    records = []
    for position, (number, line) in enumerate(lines):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            is_tail = position == len(lines) - 1
            if is_tail and tolerate_torn_tail:
                # Lazy import: repro.harness.telemetry imports nothing from
                # here, but keeping persist import-light avoids surprises.
                from repro.harness.telemetry import GLOBAL_COUNTERS

                GLOBAL_COUNTERS.torn_lines += 1
                break
            where = "torn trailing line" if is_tail else "torn line mid-file"
            raise TornLineError(f"{target}:{number}: {where}: {exc}") from exc
    return records


def recover_jsonl(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Read a JSONL file and *repair* its torn tail in place.

    :func:`read_jsonl` merely tolerates the single torn trailing line a
    killed writer can leave; a writer that wants to *keep appending* to the
    file must also remove it, or the next append would glue new records onto
    the partial line and manufacture a mid-file tear.  This reads the valid
    prefix (via :func:`read_jsonl`, so a torn line anywhere before the tail
    still raises :class:`TornLineError`) and truncates the file back to that
    prefix.  Returns ``(records, truncated_bytes)``."""
    target = Path(path)
    if not target.exists():
        return [], 0
    records = read_jsonl(target, tolerate_torn_tail=True)
    raw = target.read_bytes()
    offset = 0
    parsed = 0
    for line in raw.splitlines(keepends=True):
        if line.strip():
            if parsed == len(records):
                break
            parsed += 1
        offset += len(line)
    truncated = len(raw) - offset
    if truncated:
        with target.open("rb+") as handle:
            handle.truncate(offset)
    return records, truncated


# ----------------------------------------------------------------------
# Checksummed payloads (standalone repro artifacts)
# ----------------------------------------------------------------------
class ChecksumError(ValueError):
    """A checksummed payload failed verification (corrupt or hand-edited)."""


def payload_checksum(payload: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of ``payload`` minus its own
    ``checksum`` field, so the digest can be stored inside the payload."""
    body = {key: value for key, value in payload.items() if key != "checksum"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def attach_checksum(payload: dict[str, Any]) -> dict[str, Any]:
    """Return ``payload`` with its ``checksum`` field (re)computed."""
    out = dict(payload)
    out["checksum"] = payload_checksum(out)
    return out


def verify_checksum(payload: dict[str, Any], source: str = "payload") -> dict[str, Any]:
    """Validate a checksummed payload; raises :class:`ChecksumError`."""
    stored = payload.get("checksum")
    if not stored:
        raise ChecksumError(f"{source}: missing checksum field")
    expected = payload_checksum(payload)
    if stored != expected:
        raise ChecksumError(
            f"{source}: checksum mismatch (stored {stored[:12]}…, computed "
            f"{expected[:12]}…) — the file is corrupt or was edited by hand"
        )
    return payload


def save_checksummed(payload: dict[str, Any], path: str | Path) -> Path:
    """Write ``payload`` with an attached checksum (pretty-printed JSON)."""
    return save_json(attach_checksum(payload), path)


def load_checksummed(path: str | Path) -> dict[str, Any]:
    """Load and verify a checksummed JSON payload."""
    return verify_checksum(load_json(path), source=str(path))
