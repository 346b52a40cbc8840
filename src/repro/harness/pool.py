"""The campaign engine: a persistent pool of batch-serving workers.

The paper's C/C++ RFF rides on AFL's fork server, which starts the target
once and reuses it for every execution.  This module is our analogue, and
the only way a :class:`~repro.harness.parallel.ParallelCampaign` (or
:class:`~repro.harness.supervisor.SupervisedCampaign`) executes slices:

* **Long-lived workers.**  ``processes`` workers are started once per
  campaign and serve *batches* of slices over a request/reply pipe
  protocol, surviving across batches and allocation rounds.
* **Worker-side caches.**  :func:`run_slice` caches constructed tools
  keyed by ``(tool_name, program_name)`` and resolved programs keyed by
  program name.  Caching is determinism-safe because every ``find_bug``
  call builds its own RNG/policy/fuzzer state from the slice seed;
  campaign attributes (sanitizers, replay verification, guardrails) are
  applied from the campaign-wide :class:`WorkerProfile`, which never
  changes over a pool's lifetime.  Tools that keep cross-call state can
  opt out with ``reusable = False`` (see
  :class:`repro.harness.tools.TestingTool`).
* **In-process mode.**  With ``processes=0``, or once no worker can be
  started at all (``pool_degraded``), slices run in the dispatching
  process through the same :func:`run_slice` and its own caches.
* **Compact replies.**  Results cross the pipe in persist-dict form
  (:func:`repro.harness.persist.result_to_dict`), not as pickled live
  objects; the dispatcher re-interns repeated strings and rf-pair buffers
  on decode so ten thousand slices don't allocate ten thousand copies of
  ``"CS/reorder_10"``.
* **Budget-aware batching.**  The dispatcher packs slices into batches
  bounded both by slice count and by total schedule budget
  (:func:`repro.harness.allocator.pack_batches`), so one slow batch cannot
  starve an allocation-round barrier.
* **Crash replay of unfinished slices only.**  Workers stream one
  ``slice_done`` message per slice; when a worker dies mid-batch, makes no
  progress for ``cell_timeout`` seconds, or (supervised) misses its
  heartbeat lease, the dispatcher already holds every completed slice and
  re-enqueues only the unfinished remainder on a fresh worker
  (``worker_recycle`` telemetry).  Only the slice that was running is
  charged the lost attempt; it is replayed alone, within the campaign's
  ``max_retries``, and the slices behind it are requeued uncharged, so a
  crashing slice cannot take its batch-mates down with it.  Supervised
  replays back off by ``backoff_delay``; a slice whose retries run out is
  recorded as a structured error, triaged as a deterministic crasher or a
  flaky environment.  For a fixed (seed, allocator), serial == pool ==
  SIGKILL'd-and-resumed, bit for bit.

Wire protocol (one duplex pipe per worker):

======================  =================================================
parent -> worker        ``("batch", batch_id, [wire_slice, ...])`` then
                        eventually ``("shutdown",)``
worker -> parent        ``("slice_done", batch_id, index, payload)`` or
                        ``("slice_error", batch_id, index, message)`` per
                        slice, ``("batch_end", batch_id)`` per batch, and
                        ``("heartbeat", seq, identity)`` when supervised
======================  =================================================

A wire slice is the interned tuple of the :class:`CellSpec` fields
``(tool, program, trial, seed, budget, factory_ref)``; a reply payload is
``(result_dict, wall_time, counters_dict)``.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, field, replace
from multiprocessing import connection as mp_connection
from typing import Any

from repro.core.trace import intern_schedule
from repro.harness.persist import result_from_dict, result_to_dict
from repro.harness.telemetry import GLOBAL_COUNTERS
from repro.harness.tools import BugSearchResult

#: Default maximum slices per dispatched batch.
DEFAULT_BATCH_SLICES = 8
#: Target number of batch "waves" per worker per execute() call; the budget
#: cap is sized so a round splits into roughly this many batches per worker,
#: keeping any single batch from holding the round barrier hostage.
BATCH_WAVES = 4
#: How often an idle worker checks that its campaign process is alive.
ORPHAN_POLL_SECONDS = 0.1


@dataclass(frozen=True)
class CellSpec:
    """One slice of a (tool, program, trial) campaign cell: its identity.

    ``factory_ref`` is an importable ``"module:qualname"`` reference to the
    tool factory, resolved *inside* the worker — the spec is all a freshly
    spawned process needs, with no reliance on inherited module globals.
    Campaign-wide settings travel separately, once per worker, in
    :class:`WorkerProfile`.
    """

    tool: str
    program: str
    trial: int
    seed: int
    budget: int
    factory_ref: str

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.tool, self.program, self.trial)


@dataclass(frozen=True)
class CellOutcome:
    """What one slice run yields: the result plus its measured cost."""

    result: BugSearchResult
    wall_time: float
    counters: dict[str, int]


@dataclass(frozen=True)
class WorkerProfile:
    """Campaign-wide configuration shipped to each worker exactly once.

    Everything here is constant for the life of one campaign, which is what
    makes the worker-side tool cache sound: a cached tool re-applies the
    same profile attributes before every slice, so no slice can observe
    state leaked from a differently-configured predecessor.
    """

    sanitizers: tuple[str, ...] = ()
    verify_replays: int = 0
    guard: tuple | None = None
    #: Importable fault-injection hook called with the CellSpec before
    #: every slice (see repro.harness.faults).
    fault_hook: str | None = None
    #: Interval of the worker's heartbeat thread; None disables heartbeats.
    heartbeat_seconds: float | None = None
    #: Directory for per-worker cProfile dumps; None disables profiling.
    profile_dir: str | None = None
    #: Snapshot of ``RFF_*`` environment variables taken dispatcher-side.
    #: Restored inside the worker so chaos plans and fault hooks behave
    #: identically under fork, forkserver and spawn — the forkserver
    #: process inherits the environment of its *first* use, not of the
    #: campaign that is currently running.
    env: tuple[tuple[str, str], ...] = ()


def resolve_ref(ref: str) -> Any:
    """Resolve an importable ``"module:qualname"`` reference."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed importable reference {ref!r}; expected 'module:qualname'")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def wire_slice(spec: CellSpec) -> tuple:
    """The compact, interned wire form of one :class:`CellSpec` slice."""
    return intern_schedule(
        (spec.tool, spec.program, spec.trial, spec.seed, spec.budget, spec.factory_ref)
    )


def run_slice(spec: CellSpec, profile: WorkerProfile, tools: dict, programs: dict) -> CellOutcome:
    """Run one slice against a tool cache and a program cache.

    The one slice runner: pool workers and the in-process mode both call
    it, each with its own caches.
    """
    from repro import bench

    if profile.fault_hook:
        resolve_ref(profile.fault_hook)(spec)
    cache_key = (spec.tool, spec.program)
    tool = tools.get(cache_key)
    if tool is None:
        tool = resolve_ref(spec.factory_ref)()
        if getattr(tool, "reusable", True):
            tools[cache_key] = tool
    if profile.sanitizers:
        tool.sanitizers = profile.sanitizers
    if profile.verify_replays:
        tool.verify_replays = profile.verify_replays
    if profile.guard is not None:
        from repro.runtime.guard import GuardConfig

        step_budget, wall_seconds, livelock_window = profile.guard
        tool.guard = GuardConfig(
            step_budget=step_budget,
            wall_seconds=wall_seconds,
            livelock_window=livelock_window,
        )
    program = programs.get(spec.program)
    if program is None:
        program = programs[spec.program] = bench.get(spec.program)
    before = GLOBAL_COUNTERS.snapshot()
    start = time.perf_counter()
    result = tool.find_bug(program, spec.budget, spec.seed)
    wall_time = time.perf_counter() - start
    # Stamp the trial index (the tool records the seed there by default).
    return CellOutcome(
        result=replace(result, trial=spec.trial),
        wall_time=wall_time,
        counters=GLOBAL_COUNTERS.delta(before).as_dict(),
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _pool_worker_main(conn, profile: WorkerProfile) -> None:
    """Worker entrypoint: serve batches until told to shut down.

    Tools and programs are cached across batches *and* allocation rounds —
    this loop is the fork-server analogue the module docstring describes.
    Replies stream per slice so the dispatcher can replay only unfinished
    work when this process dies mid-batch.
    """
    os.environ.update(dict(profile.env))
    import threading

    from repro.harness import faults

    send_lock = threading.Lock()
    stop = threading.Event()
    #: Identity (tool, program, trial) of the slice currently running; the
    #: heartbeat thread reads it so parent-side telemetry can attribute
    #: beats to cells (None while idle between batches).
    current: list = [None]

    if profile.heartbeat_seconds:

        def beat() -> None:
            # A wedged worker (hang fault, stuck runtime) stops beating but
            # stays alive — exactly the failure the parent's lease catches.
            seq = 0
            while not stop.wait(profile.heartbeat_seconds):
                if faults.is_wedged():
                    continue
                seq += 1
                with send_lock:
                    if stop.is_set():
                        return
                    try:
                        conn.send(("heartbeat", seq, current[0]))
                    except OSError:  # parent gone; nothing left to report to
                        return

        threading.Thread(target=beat, daemon=True).start()

    profiler = None
    if profile.profile_dir:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()

    def dump_profile() -> None:
        if profiler is None:
            return
        profiler.disable()
        target = os.path.join(profile.profile_dir, f"worker-{os.getpid()}.pstats")
        profiler.dump_stats(target)
        profiler.enable()

    tools: dict[tuple[str, str], Any] = {}
    programs: dict[str, Any] = {}
    # A worker whose campaign process died (SIGKILL included) must exit at
    # the next slice boundary: it may hold the campaign's store lock
    # (inherited under fork), and the far end of its pipe can stay open in
    # a sibling forked later, so EOF alone does not reveal the death.
    parent = os.getppid()
    try:
        while True:
            try:
                while not conn.poll(ORPHAN_POLL_SECONDS):
                    if os.getppid() != parent:
                        return
                message = conn.recv()
            except (EOFError, OSError):  # parent died; die with it
                return
            if message[0] == "shutdown":
                dump_profile()
                return
            _, batch_id, slices = message
            for index, wire in enumerate(slices):
                if os.getppid() != parent:
                    return
                spec = CellSpec(*wire)
                current[0] = spec.key
                try:
                    outcome = run_slice(spec, profile, tools, programs)
                    payload = ("slice_done", batch_id, index,
                               (result_to_dict(outcome.result), outcome.wall_time,
                                outcome.counters))
                except BaseException as exc:  # noqa: BLE001 - must not leak workers
                    payload = ("slice_error", batch_id, index,
                               f"{type(exc).__name__}: {exc}")
                current[0] = None
                with send_lock:
                    conn.send(payload)
            with send_lock:
                conn.send(("batch_end", batch_id))
            # Dump after every batch, not only at shutdown, so a worker that
            # is later killed still leaves profile data for completed work.
            dump_profile()
    finally:
        stop.set()
        conn.close()


# ----------------------------------------------------------------------
# Dispatcher side
# ----------------------------------------------------------------------
def _rff_env_snapshot() -> tuple[tuple[str, str], ...]:
    """The dispatcher's ``RFF_*`` environment, as a picklable sorted tuple.

    Fault-injection state travels through ``RFF_*`` variables.  Under the
    ``fork`` start method children inherit them implicitly, but ``spawn``
    re-executes the interpreter and ``forkserver`` forks from a *server*
    process whose environment was frozen at first use — both can miss
    variables set (e.g. by a chaos test) after interpreter start.  Workers
    therefore restore this snapshot explicitly before running any slice.
    """
    return tuple(sorted((k, v) for k, v in os.environ.items() if k.startswith("RFF_")))


def _intern_reply(data: dict) -> dict:
    """Re-intern the repeated strings of one reply's result dict in place.

    A campaign decodes thousands of replies whose tool/program/outcome and
    sanitizer rf-pair strings repeat across slices; ``sys.intern`` collapses
    them to shared singletons parent-side (the same discipline the abstract
    event and rf-pair tables apply inside the executor).
    """
    data["tool"] = sys.intern(data["tool"])
    data["program"] = sys.intern(data["program"])
    outcome = data.get("outcome")
    if isinstance(outcome, str):
        data["outcome"] = sys.intern(outcome)
    for report in data.get("sanitizer_reports", ()):
        report["sanitizer"] = sys.intern(report["sanitizer"])
        report["kind"] = sys.intern(report["kind"])
        report["pair"] = [sys.intern(part) for part in report["pair"]]
    return data


def _decode_outcome(payload) -> CellOutcome:
    data, wall_time, counters = payload
    return CellOutcome(
        result=result_from_dict(_intern_reply(data)),
        wall_time=wall_time,
        counters=counters,
    )


@dataclass
class _Batch:
    """One dispatched unit of work: parallel arrays over its slices."""

    batch_id: int
    specs: list[CellSpec]
    attempts: list[int]
    wires: list[tuple]
    budget: int
    done: list[bool] = field(default_factory=list)
    #: Earliest dispatch time (supervised crash-replay batches back off).
    not_before: float = 0.0

    def __post_init__(self) -> None:
        if not self.done:
            self.done = [False] * len(self.specs)

    def unfinished(self) -> list[int]:
        return [index for index, is_done in enumerate(self.done) if not is_done]


@dataclass
class _PoolWorker:
    """Parent-side handle of one long-lived pool worker."""

    proc: Any
    conn: Any
    last_beat: float
    #: Time of the worker's last slice completion (or batch dispatch); the
    #: per-slice ``cell_timeout`` is enforced as time-without-progress.
    last_progress: float
    batch: _Batch | None = None


class WorkerPool:
    """The workers of one campaign run and the dispatch loop that feeds them.

    The pool outlives individual ``execute()`` calls — the campaign calls
    it once per allocation round, and worker caches persist across rounds.
    It reads its settings from the owning campaign: worker count, start
    context, batch size, ``cell_timeout``, ``max_retries`` and, for a
    supervised campaign, ``heartbeat_seconds``, ``lease_seconds`` and
    ``backoff_delay``.  Recording and the isolate-failures policy stay
    with the campaign (its recorder and ``_fail``).
    """

    def __init__(self, campaign, context) -> None:
        self.campaign = campaign
        self.sink = campaign.telemetry
        self.context = context
        self.size = campaign._process_count()
        self.batch_size = campaign.batch_size or DEFAULT_BATCH_SLICES
        config = campaign.config
        profile_dir = None
        if campaign.profile_dir is not None:
            profile_dir = str(campaign.profile_dir)
            os.makedirs(profile_dir, exist_ok=True)
        self.profile = WorkerProfile(
            sanitizers=tuple(config.sanitizers),
            verify_replays=config.verify_replays,
            guard=config.guard.as_tuple() if config.guard is not None else None,
            fault_hook=campaign.fault_hook,
            heartbeat_seconds=campaign.heartbeat_seconds,
            profile_dir=profile_dir,
            env=_rff_env_snapshot(),
        )
        self._workers: dict[Any, _PoolWorker] = {}
        self._batch_seq = 0
        #: Run slices in this process: ``processes=0``, or no worker could
        #: be started (degraded for the rest of the campaign).
        self._in_process = self.size == 0
        #: The in-process mode's run_slice caches.
        self._tools: dict[tuple[str, str], Any] = {}
        self._programs: dict[str, Any] = {}

    # -- batching -------------------------------------------------------
    def _make_batch(self, specs: list, attempts: list[int], not_before: float = 0.0) -> _Batch:
        self._batch_seq += 1
        return _Batch(
            batch_id=self._batch_seq,
            specs=list(specs),
            attempts=list(attempts),
            wires=[wire_slice(spec) for spec in specs],
            budget=sum(spec.budget for spec in specs),
            not_before=not_before,
        )

    def _pack(self, specs: list) -> list[_Batch]:
        from repro.harness.allocator import pack_batches

        total = sum(spec.budget for spec in specs)
        largest = max(spec.budget for spec in specs)
        cap = max(largest, -(-total // (max(1, self.size) * BATCH_WAVES)))
        return [
            self._make_batch(group, [1] * len(group))
            for group in pack_batches(specs, self.batch_size, cap)
        ]

    # -- worker lifecycle -----------------------------------------------
    def _spawn(self) -> _PoolWorker | None:
        try:
            parent_conn, child_conn = self.context.Pipe(duplex=True)
            proc = self.context.Process(
                target=_pool_worker_main, args=(child_conn, self.profile), daemon=True
            )
            proc.start()
        except OSError:
            return None
        child_conn.close()
        self.sink.emit("worker_start", pid=proc.pid)
        now = time.perf_counter()
        worker = _PoolWorker(proc=proc, conn=parent_conn, last_beat=now, last_progress=now)
        self._workers[parent_conn] = worker
        return worker

    def _idle_worker(self) -> _PoolWorker | None:
        for worker in self._workers.values():
            if worker.batch is None:
                return worker
        return None

    @staticmethod
    def _kill(worker: _PoolWorker) -> None:
        worker.proc.terminate()
        worker.proc.join(timeout=5)
        if worker.proc.is_alive():  # pragma: no cover - terminate() suffices
            worker.proc.kill()
            worker.proc.join()
        worker.conn.close()

    def close(self) -> None:
        """Shut every worker down (clean message first, then force)."""
        for worker in self._workers.values():
            if worker.batch is not None:
                # Abort path: a batch is still in flight; don't wait for it.
                self._kill(worker)
                continue
            try:
                worker.conn.send(("shutdown",))
            except OSError:
                pass
        for worker in self._workers.values():
            if worker.batch is not None:
                continue
            worker.proc.join(timeout=5)
            if worker.proc.is_alive():  # pragma: no cover - shutdown suffices
                worker.proc.terminate()
                worker.proc.join()
            worker.conn.close()
            self.sink.emit(
                "worker_exit", pid=worker.proc.pid, exitcode=worker.proc.exitcode, kind="ok"
            )
        self._workers.clear()

    # -- dispatch/replay ------------------------------------------------
    def _dispatch(self, worker: _PoolWorker, batch: _Batch) -> bool:
        for index, spec in enumerate(batch.specs):
            self.sink.emit(
                "cell_start",
                tool=spec.tool,
                program=spec.program,
                trial=spec.trial,
                attempt=batch.attempts[index],
            )
        try:
            worker.conn.send(("batch", batch.batch_id, batch.wires))
        except OSError:
            return False
        now = time.perf_counter()
        worker.batch = batch
        worker.last_progress = now
        worker.last_beat = now
        self.sink.emit(
            "batch_dispatch",
            pid=worker.proc.pid,
            batch=batch.batch_id,
            slices=len(batch.specs),
            budget=batch.budget,
        )
        return True

    def _recycle(
        self,
        worker: _PoolWorker,
        kind: str,
        detail: str,
        waiting: list[_Batch],
        recorder,
        stats: dict[str, int],
    ) -> None:
        """Retire a dead/killed worker and replay only its unfinished slices.

        Workers run a batch in order and report every slice, so the first
        unfinished slice is the one that was running: only it is charged
        the lost attempt and replayed alone.  The slices behind it never
        started; they are requeued at their current attempt.
        """
        campaign, sink = self.campaign, self.sink
        supervised = campaign.lease_seconds is not None
        del self._workers[worker.conn]
        if kind == "crash":
            worker.proc.join()
            worker.conn.close()
        else:
            self._kill(worker)
        exitcode = worker.proc.exitcode
        batch = worker.batch
        unfinished = [] if batch is None else batch.unfinished()
        sink.emit("worker_exit", pid=worker.proc.pid, exitcode=exitcode, kind=kind)
        sink.emit(
            "worker_recycle",
            pid=worker.proc.pid,
            exitcode=exitcode,
            kind=kind,
            unfinished=len(unfinished),
        )
        if not unfinished:
            return
        running, never_started = unfinished[0], unfinished[1:]
        if never_started:
            waiting.append(
                self._make_batch(
                    [batch.specs[index] for index in never_started],
                    [batch.attempts[index] for index in never_started],
                )
            )
        spec, attempt = batch.specs[running], batch.attempts[running]
        campaign._failure_kinds.setdefault(spec.key, []).append(kind)
        if attempt > campaign.max_retries:
            verdict = f" [{campaign._classify(spec.key)}]" if supervised else ""
            campaign._fail(spec, attempt, kind, detail + verdict, recorder, stats)
            return
        stats["retries"] += 1
        sink.emit(
            "cell_retry",
            tool=spec.tool,
            program=spec.program,
            trial=spec.trial,
            attempt=attempt,
            kind=kind,
        )
        delay = 0.0
        if supervised:
            delay = campaign.backoff_delay(attempt)
            sink.emit(
                "lease_reassign",
                tool=spec.tool,
                program=spec.program,
                trial=spec.trial,
                attempt=attempt,
                kind=kind,
                delay=delay,
            )
        waiting.append(
            self._make_batch([spec], [attempt + 1], not_before=time.perf_counter() + delay)
        )

    def _pump(
        self, worker: _PoolWorker, waiting: list[_Batch], recorder, stats: dict[str, int]
    ) -> None:
        """Drain every buffered message of one worker pipe."""
        conn = worker.conn
        while True:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError):
                self._recycle(
                    worker,
                    "crash",
                    f"worker died with exit code {worker.proc.exitcode}",
                    waiting,
                    recorder,
                    stats,
                )
                return
            tag = message[0]
            now = time.perf_counter()
            worker.last_beat = now
            if tag == "heartbeat":
                identity = message[2]
                if identity is not None:
                    self.sink.emit(
                        "heartbeat",
                        pid=worker.proc.pid,
                        tool=identity[0],
                        program=identity[1],
                        trial=identity[2],
                        seq=message[1],
                    )
            elif tag == "slice_done":
                _, _, index, payload = message
                batch = worker.batch
                batch.done[index] = True
                worker.last_progress = now
                outcome = _decode_outcome(payload)
                recorder(batch.specs[index], batch.attempts[index], outcome, outcome.result)
            elif tag == "slice_error":
                # Deterministic in-worker exception; retrying cannot help.
                _, _, index, detail = message
                batch = worker.batch
                batch.done[index] = True
                worker.last_progress = now
                self.campaign._fail(
                    batch.specs[index], batch.attempts[index], "error", detail, recorder, stats
                )
            elif tag == "batch_end":
                worker.batch = None

    def _run_in_process(self, spec: CellSpec, attempt: int, recorder, stats: dict[str, int]) -> None:
        self.sink.emit(
            "cell_start", tool=spec.tool, program=spec.program, trial=spec.trial, attempt=attempt
        )
        try:
            outcome = run_slice(spec, self.profile, self._tools, self._programs)
        except Exception as exc:  # deterministic failure: no retry in-process
            self.campaign._fail(
                spec, attempt, "error", f"{type(exc).__name__}: {exc}", recorder, stats
            )
            return
        recorder(spec, attempt, outcome, outcome.result)

    def _drain_in_process(
        self, ready: deque, waiting: list[_Batch], recorder, stats: dict[str, int]
    ) -> None:
        """Finish every remaining slice in this process."""
        while ready or waiting:
            batch = ready.popleft() if ready else waiting.pop(0)
            for index in batch.unfinished():
                self._run_in_process(batch.specs[index], batch.attempts[index], recorder, stats)

    # -- the dispatch loop ----------------------------------------------
    def execute(self, specs: list[CellSpec], recorder, stats: dict[str, int]) -> None:
        """Run every slice of ``specs`` (one round barrier).

        Returns when every slice has been recorded (success or structured
        failure).  Workers left idle at return stay alive for the next call.
        """
        if not specs:
            return
        ready: deque[_Batch] = deque(self._pack(specs))
        #: Crash-replay batches waiting out their backoff delay.
        waiting: list[_Batch] = []
        if self._in_process:
            self._drain_in_process(ready, waiting, recorder, stats)
            return
        cell_timeout = self.campaign.cell_timeout
        lease_seconds = self.campaign.lease_seconds
        while ready or waiting or any(w.batch is not None for w in self._workers.values()):
            now = time.perf_counter()
            for batch in [b for b in waiting if b.not_before <= now]:
                waiting.remove(batch)
                ready.append(batch)
            while ready:
                worker = self._idle_worker()
                if worker is None and len(self._workers) < self.size:
                    worker = self._spawn()
                    if worker is None and not self._workers:
                        # No live workers and none can start: degrade to
                        # in-process for the rest of the campaign.
                        self._in_process = True
                        self.sink.emit(
                            "pool_degraded",
                            reason="pool worker could not be started; "
                            "running remaining slices serially in-process",
                        )
                        self._drain_in_process(ready, waiting, recorder, stats)
                        return
                if worker is None:
                    break
                batch = ready.popleft()
                if not self._dispatch(worker, batch):
                    # The idle worker died between batches; replace it and
                    # put the batch back — nothing of it ran yet.
                    self._recycle(worker, "crash", "idle worker died", waiting, recorder, stats)
                    ready.appendleft(batch)
            if not self._workers:
                if waiting and not ready:
                    # Everything is backing off and no worker is alive yet;
                    # sleep to the nearest retry-ready time, don't spin.
                    time.sleep(
                        max(0.0, min(b.not_before for b in waiting) - time.perf_counter())
                    )
                continue
            deadlines = [b.not_before for b in waiting]
            for worker in self._workers.values():
                if worker.batch is not None and cell_timeout is not None:
                    deadlines.append(worker.last_progress + cell_timeout)
                if lease_seconds is not None:
                    deadlines.append(worker.last_beat + lease_seconds)
            timeout = max(0.0, min(deadlines) - now) if deadlines else None
            for conn in mp_connection.wait(list(self._workers), timeout=timeout):
                worker = self._workers.get(conn)
                if worker is not None:
                    self._pump(worker, waiting, recorder, stats)
            now = time.perf_counter()
            for worker in list(self._workers.values()):
                timed_out = (
                    worker.batch is not None
                    and cell_timeout is not None
                    and now - worker.last_progress >= cell_timeout
                )
                lease_lost = lease_seconds is not None and now - worker.last_beat >= lease_seconds
                if not (timed_out or lease_lost):
                    continue
                kind = "timeout" if timed_out else "lease"
                detail = (
                    f"slice exceeded {cell_timeout:g}s without progress"
                    if timed_out
                    else f"worker missed its heartbeat deadline "
                    f"({lease_seconds:g}s lease expired)"
                )
                self._recycle(worker, kind, detail, waiting, recorder, stats)
