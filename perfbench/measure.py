"""Process timing, percentiles and the machine-speed context of a run."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Finished:
    """One child process, from launch to reaped exit."""

    code: int
    wall_s: float
    #: user + sys CPU of the child and every descendant it waited for.
    cpu_s: float
    #: Peak resident set of the child or its largest waited-for descendant.
    rss_mb: float
    stdout: str
    stderr: str


def child_env(root: Path) -> dict[str, str]:
    """The environment of every command: the checkout's ``src`` first on
    the import path, and none of the harness's ``RFF_*`` fault switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("RFF_")}
    env["PYTHONPATH"] = str(root / "src")
    return env


#: ``prctl`` option that makes orphaned descendants children of the caller.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds a command's leftover processes get to exit after it did.
LEFTOVER_GRACE_S = 10.0
#: Seconds a killed process gets to be reaped (by this process as a
#: subreaper, else by init) before the run gives up.
REAP_WAIT_S = 10.0


def become_subreaper() -> bool:
    """Adopt every orphaned descendant (Linux), so that processes a
    command leaves behind become this process's children and can be
    waited for.  False where the kernel does not offer it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap_group(pgid: int, grace: float = LEFTOVER_GRACE_S) -> float:
    """Wait until no process of group ``pgid`` is left, and return the CPU
    seconds of those reaped here.

    A command's helpers (a fork server, multiprocessing's resource
    tracker) may exit a moment after the command.  As a subreaper this
    process inherits them and reaps them; what is still running after
    ``grace`` seconds is killed.  Raises if the group cannot be emptied.
    """
    cpu = 0.0
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            pid, _, usage = os.wait4(-pgid, os.WNOHANG)
        except ChildProcessError:
            pid = 0
        if pid > 0:
            cpu += usage.ru_utime + usage.ru_stime
            continue
        if not _group_alive(pgid):
            return cpu
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes of group {pgid} survive SIGKILL")
            _kill_group(pgid)
            killed = True
            deadline = time.monotonic() + REAP_WAIT_S
        time.sleep(0.005)


def run_process(argv: list[str], root: Path, timeout: float = 170.0) -> Finished:
    """Run ``python argv...`` from ``root`` and wait for it and for every
    process it started.

    The command leads a process group of its own.  ``os.wait4`` returns
    its resource usage including every descendant it reaped, so campaign
    workers count towards CPU and peak RSS; processes it left behind are
    reaped by :func:`reap_group` and their CPU added.  A command that
    outlives ``timeout`` is killed with its group and reported as failed
    (exit code -9).
    """
    out_path = root / ".perfbench" / f"out-{os.getpid()}.txt"
    err_path = root / ".perfbench" / f"err-{os.getpid()}.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w+b") as out, err_path.open("w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=root, env=child_env(root),
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        # A blocking wait, not polling: nothing in this process wakes up
        # and competes with the command for the CPU while it runs.
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        leftover_cpu = reap_group(proc.pid, LEFTOVER_GRACE_S)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    out_path.unlink(missing_ok=True)
    err_path.unlink(missing_ok=True)
    return Finished(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime + leftover_cpu,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def reap_children(grace: float = LEFTOVER_GRACE_S) -> None:
    """Wait until this process has no child left: the last step of a run.

    Children that are still running after ``grace`` seconds are killed
    (their pids are read from ``/proc``, so only on Linux).
    """
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid > 0:
            continue
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError("child processes survive SIGKILL")
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + REAP_WAIT_S
        time.sleep(0.005)


def _children() -> list[int]:
    me, found = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            # Field 4, after the parenthesised command name, is the parent pid.
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                found.append(int(entry.name))
    return found


SETUP_SNIPPET = """
import sys, time
import repro.cli
from repro import bench
for name in sys.argv[1:]:
    bench.get(name)
print(time.monotonic())
sys.stdout.flush()
from repro.harness.parallel import _default_start_method
print(_default_start_method())
"""


def setup_once(root: Path, programs: list[str]) -> tuple[float, str]:
    """Seconds from launching a fresh interpreter until it has imported
    ``repro.cli`` and constructed ``programs``; plus the package's default
    start method, which the same child reports after the timed part.

    Both sides read ``CLOCK_MONOTONIC``, which is system-wide on Linux.
    """
    launched = time.monotonic()
    done = run_process(["-c", SETUP_SNIPPET, *programs], root)
    if done.code != 0:
        raise RuntimeError(f"set-up child failed ({done.code}): {done.stderr.strip()[-400:]}")
    ready, method = done.stdout.split()[:2]
    return float(ready) - launched, method


def tail(samples: list[float], beyond: int = 10) -> tuple[float, float, int]:
    """The value at the highest percentile that has at least ``beyond``
    samples above it: (value, percentile, samples above it).

    With ``n`` samples that is the ``beyond + 1``-th largest, at percentile
    ``100 * (n - beyond) / n``.  With ``beyond`` samples or fewer no
    percentile qualifies; the maximum is returned with the samples above
    it (zero) so the shortfall is visible.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def calibrate(duration: float = 0.2) -> float:
    """Million ops/s of a fixed pure-Python loop (dict reads and writes,
    integer arithmetic): the same yardstick ``benchmarks/test_engine_perf.py``
    normalizes by.  A slow reading means a slow host, not a slow program."""
    table = {i: i for i in range(64)}
    acc = 0
    ops = 0
    start = time.perf_counter()
    deadline = start + duration
    while time.perf_counter() < deadline:
        for i in range(1000):
            acc += table[i & 63]
            table[i & 63] = acc & 1023
        ops += 1000
    return ops / (time.perf_counter() - start) / 1e6


def source_identity(root: Path) -> str:
    """The commit when the checkout is a git work tree, else a hash of the
    package sources (the checkout the benchmark runs in may hold no
    ``.git``)."""
    head = root / ".git" / "HEAD"
    if head.exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def context(root: Path) -> dict:
    """Host facts recorded beside every run's figures."""
    return {
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "source": source_identity(root),
    }
