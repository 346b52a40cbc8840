"""Fault injection for campaigns: one-shot hooks + chaos plans.

The campaigns' robustness claims — bounded retries, per-cell timeouts, lease
expiry, crash isolation, checkpoint/store resume — are only testable if
worker and storage failure can be provoked on demand.  Two mechanisms:

**One-shot hooks** (the original layer).  A campaign's ``fault_hook`` may
name an importable ``"module:qualname"`` reference; the slice runner
(:func:`repro.harness.pool.run_slice`) resolves and calls it with the
slice's :class:`~repro.harness.pool.CellSpec` *before* running it.  Hooks
read only the spec's ``tool``, ``program`` and ``trial``.  The
built-in :func:`crash_once` hook targets a single cell through environment
variables and fires exactly once per campaign via an atomically created
state file:

* ``RFF_FAULT_CELL``  — target cell as ``"tool|program|trial"``;
* ``RFF_FAULT_STATE`` — path of the once-only state file (must not exist);
* ``RFF_FAULT_MODE``  — ``"crash"`` (default: hard ``os._exit``) or
  ``"hang"`` (wedge the worker: heartbeats stop, then sleep until the
  engine's lease/timeout kills it);
* ``RFF_FAULT_HANG_SECONDS`` — sleep length for ``"hang"`` (default 3600).

**Chaos plans** (the composable layer).  A :class:`ChaosPlan` is a pure
function of its seed: for any cell key or store-write index it answers
"which fault, if any, fires here?" — identically on every call, in every
process, under any start method.  Plans travel through the environment
(:data:`ENV_PLAN` carries the JSON form, inherited by fork and spawn
workers alike), and every injection point fires *exactly once* per
campaign via ``O_CREAT | O_EXCL`` claim files under :data:`ENV_PLAN_STATE`
— so a retried or resumed attempt of a faulted cell proceeds normally and
the campaign provably converges to the fault-free result.

Worker-side fault kinds (applied by :func:`chaos_hook`):

* ``kill`` — hard ``os._exit`` mid-trial (segfault/OOM/SIGKILL model);
* ``hang`` — wedge the worker past its lease: the heartbeat thread checks
  :func:`is_wedged` and stops beating, then the hook sleeps until the
  supervisor's lease expiry kills the process;
* ``skew`` — a benign slow-worker clock skew: sleep briefly, keep beating.

Store-side fault kinds (applied by
:class:`~repro.harness.store.CorpusStore` during appends):

* ``torn_write`` — flush only a prefix of the record's line, then raise
  :class:`ChaosKill` (the SIGKILL-mid-write model);
* ``corrupt`` — commit the record with a poisoned checksum, modelling
  at-rest corruption the reader must detect and re-run around.

Hooks run inside worker processes.  In the engines' degraded serial mode
they run in the campaign process itself, so tests combining degradation
with ``kill`` faults would kill the whole campaign — don't.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass

ENV_TARGET = "RFF_FAULT_CELL"
ENV_STATE = "RFF_FAULT_STATE"
ENV_MODE = "RFF_FAULT_MODE"
ENV_HANG_SECONDS = "RFF_FAULT_HANG_SECONDS"

#: JSON form of a ChaosPlan (see ChaosPlan.to_env / from_env).
ENV_PLAN = "RFF_CHAOS_PLAN"
#: Directory of once-only claim files for chaos injection points.
ENV_PLAN_STATE = "RFF_CHAOS_STATE"

#: Exit code of a crash-injected worker (distinctive in worker_exit records).
CRASH_EXIT_CODE = 17

#: Importable reference for CellSpec.fault_hook / ParallelCampaign.fault_hook.
CRASH_ONCE_REF = "repro.harness.faults:crash_once"
#: Importable reference of the chaos-plan worker hook.
CHAOS_HOOK_REF = "repro.harness.faults:chaos_hook"

#: Fault kinds applied inside worker processes by chaos_hook.
WORKER_FAULTS = ("kill", "hang", "skew")
#: Fault kinds applied by CorpusStore during record appends.
STORE_FAULTS = ("torn_write", "corrupt")
FAULT_KINDS = WORKER_FAULTS + STORE_FAULTS


class ChaosKill(BaseException):
    """A simulated SIGKILL during a store write.

    Derives from ``BaseException`` so generic ``except Exception`` recovery
    code cannot swallow it — like the real signal, the only valid response
    is to die and let a resumed campaign recover from disk.
    """


#: Set by wedge-style faults in the worker process; the supervised worker's
#: heartbeat thread polls it and stops beating, so the parent's lease
#: machinery (not in-process cooperation) is what ends the worker.
_WEDGED = False


def is_wedged() -> bool:
    return _WEDGED


def _wedge() -> None:
    global _WEDGED
    _WEDGED = True


def cell_key(tool: str, program: str, trial: int) -> str:
    """The canonical ``"tool|program|trial"`` encoding of one campaign cell."""
    return f"{tool}|{program}|{trial}"


# ----------------------------------------------------------------------
# Seeded deterministic chaos plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, deterministic fault-injection plan.

    Each rate is the probability mass assigned to that fault kind; for one
    injection point a single uniform draw (a pure hash of ``(seed, scope,
    token)``) is partitioned across the kinds, so rates compose: with
    ``kill=0.2, hang=0.1`` a cell draws ``kill`` with 20% mass, ``hang``
    with the next 10%, nothing otherwise.  The same seed always yields the
    same injection points — the property the differential chaos suite and
    the hypothesis tests pin down.
    """

    seed: int
    kill: float = 0.0
    hang: float = 0.0
    skew: float = 0.0
    torn_write: float = 0.0
    corrupt: float = 0.0
    #: Sleep length of a wedged (hang) worker; the lease must expire first.
    hang_seconds: float = 3600.0
    #: Sleep length of a skewed (slow) worker; benign, under the lease.
    skew_seconds: float = 0.02

    def _uniform(self, scope: str, token: str) -> float:
        digest = hashlib.sha256(f"{self.seed}|{scope}|{token}".encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    @staticmethod
    def _pick(draw: float, bands: list[tuple[str, float]]) -> str | None:
        low = 0.0
        for kind, rate in bands:
            if draw < low + rate:
                return kind
            low += rate
        return None

    def worker_fault(self, key: str) -> str | None:
        """Fault kind (kill/hang/skew) injected into cell ``key``, if any."""
        return self._pick(
            self._uniform("cell", key),
            [("kill", self.kill), ("hang", self.hang), ("skew", self.skew)],
        )

    def store_fault(self, index: int) -> str | None:
        """Fault kind (torn_write/corrupt) injected into store append #index."""
        return self._pick(
            self._uniform("write", str(index)),
            [("torn_write", self.torn_write), ("corrupt", self.corrupt)],
        )

    def injection_points(self, keys: list[str]) -> dict[str, str]:
        """All worker-side injections over ``keys`` (key -> fault kind)."""
        points = {}
        for key in keys:
            kind = self.worker_fault(key)
            if kind is not None:
                points[key] = kind
        return points

    # -- environment plumbing ------------------------------------------
    def to_env(self, state_dir: str | os.PathLike) -> dict[str, str]:
        """The environment variables that arm this plan for workers and
        stores; ``state_dir`` must be an existing directory."""
        return {ENV_PLAN: json.dumps(asdict(self)), ENV_PLAN_STATE: str(state_dir)}

    @classmethod
    def from_env(cls, environ=os.environ) -> "ChaosPlan | None":
        raw = environ.get(ENV_PLAN)
        if not raw:
            return None
        return cls(**json.loads(raw))


def claim_once(state_dir: str, token: str) -> bool:
    """Atomically claim one injection point; True exactly once per token.

    ``O_CREAT | O_EXCL`` makes exactly one attempt win the creation race;
    every later attempt (a retry, or a resumed campaign) loses the claim
    and proceeds normally."""
    name = hashlib.sha256(token.encode()).hexdigest()[:24]
    try:
        fd = os.open(os.path.join(state_dir, name), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, token.encode())
    os.close(fd)
    return True


def claimed_tokens(state_dir: str) -> list[str]:
    """The tokens of every injection point that actually fired (sorted) —
    lets tests assert exact retry/backoff accounting."""
    tokens = []
    for name in os.listdir(state_dir):
        with open(os.path.join(state_dir, name), "r", encoding="utf-8") as handle:
            tokens.append(handle.read())
    return sorted(tokens)


def chaos_hook(spec) -> None:
    """Worker-side chaos: apply the planned kill/hang/skew fault, once."""
    plan = ChaosPlan.from_env()
    state = os.environ.get(ENV_PLAN_STATE)
    if plan is None or not state:
        return
    key = cell_key(spec.tool, spec.program, spec.trial)
    kind = plan.worker_fault(key)
    if kind is None:
        return
    if kind == "skew":
        # Benign slowness: fires on every attempt, never claims state —
        # a deterministically slow worker, not a one-shot failure.
        time.sleep(plan.skew_seconds)
        return
    if not claim_once(state, f"{kind}:{key}"):
        return
    if kind == "hang":
        _wedge()
        time.sleep(plan.hang_seconds)
        return
    # A hard exit models a segfaulting/oom-killed worker: no exception, no
    # result message, just a dead process the engine must notice and retry.
    os._exit(CRASH_EXIT_CODE)


def store_chaos(index: int) -> str | None:
    """Store-side chaos: the planned torn_write/corrupt fault for append
    #``index``, claimed once; None when nothing fires."""
    plan = ChaosPlan.from_env()
    state = os.environ.get(ENV_PLAN_STATE)
    if plan is None or not state:
        return None
    kind = plan.store_fault(index)
    if kind is None:
        return None
    if not claim_once(state, f"{kind}:write-{index}"):
        return None
    return kind


# ----------------------------------------------------------------------
# One-shot targeted hook (the original layer)
# ----------------------------------------------------------------------
def crash_once(spec) -> None:
    """Fail the *first* attempt of the targeted cell, then never again.

    The once-only guarantee comes from ``O_CREAT | O_EXCL`` on the state
    file: exactly one worker attempt wins the creation race and dies; every
    later attempt (the engine's retry, or a resumed campaign) sees the file
    and proceeds normally.
    """
    target = os.environ.get(ENV_TARGET)
    state = os.environ.get(ENV_STATE)
    if not target or not state:
        return
    if cell_key(spec.tool, spec.program, spec.trial) != target:
        return
    try:
        fd = os.open(state, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    if os.environ.get(ENV_MODE, "crash") == "hang":
        # A wedged worker: its heartbeat thread (if any) stops beating, so
        # only the parent's lease/timeout machinery can end it.
        _wedge()
        time.sleep(float(os.environ.get(ENV_HANG_SECONDS, "3600")))
        return
    # A hard exit models a segfaulting/oom-killed worker: no exception, no
    # result message, just a dead process the engine must notice and retry.
    os._exit(CRASH_EXIT_CODE)


def crash_always(spec) -> None:
    """Crash *every* attempt of the targeted cell — a deterministic crasher
    (the retry budget must exhaust and classify it as such)."""
    target = os.environ.get(ENV_TARGET)
    if not target:
        return
    if cell_key(spec.tool, spec.program, spec.trial) != target:
        return
    os._exit(CRASH_EXIT_CODE)


#: Importable reference of the deterministic-crasher hook.
CRASH_ALWAYS_REF = "repro.harness.faults:crash_always"
