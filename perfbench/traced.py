"""The traced run (``--trace 1``): per-layer metrics of one workload.

Three in-process passes over the workload's own command lines, each in a
fresh work directory:

A. in-process engine (``--parallel 0``), only the campaign boundary
   wrapped: the untraced reference;
B. the same, with spans around every layer's public calls
   (:func:`perfbench.layers.install_layers`): the per-layer metrics;
C. the workload's real workers (its own ``--parallel``), with parent-side
   spans around campaign runs and worker start-up: ``harness.parallel.*``.

All three must reproduce the fresh-process digest, and the traced call
counts must equal the program's own ``cell_end`` totals.
"""

from __future__ import annotations

import io
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from perfbench import forkserver_campaign, layers, measure, workloads
from perfbench.results import ROOT, STATE, Checks, Outcome, PassResult, cross_checks, evaluate
from perfbench.spans import Patcher, SpanRecorder
from perfbench.workloads import Command

IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import repro.cli; print(time.perf_counter() - t)"
)


def scipy_import_seconds(importtime: str) -> float:
    """Cumulative import time of the outermost ``scipy`` modules in a
    ``python -X importtime`` report (children are printed before their
    parent, one indent level deeper)."""
    rows = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip(" "))
        rows.append((depth, name.strip(), int(cumulative)))
    total = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a == "scipy" or a.startswith("scipy.") for _, a in ancestors):
            total += cumulative
        ancestors.append((depth, name))
    return total / 1e6


def cli_import(checks: Checks, repeats: int = 3) -> dict[str, float]:
    """``import repro.cli`` in fresh interpreters, and scipy's share of it."""
    seconds, scipy = [], []
    for _ in range(repeats):
        done = measure.run_process(["-X", "importtime", "-c", IMPORT_SNIPPET], ROOT)
        if not checks.check(done.code == 0, f"import repro.cli failed: {done.stderr[-300:]}"):
            return {"cli.import_s": 0.0, "cli.import_scipy_s": 0.0}
        seconds.append(float(done.stdout.split()[-1]))
        scipy.append(scipy_import_seconds(done.stderr))
    return {"cli.import_s": statistics.median(seconds),
            "cli.import_scipy_s": statistics.median(scipy)}


def execute(cmd: Command) -> Outcome:
    """Run one command line inside this process, output captured."""
    argv = list(cmd.argv)
    if argv[:2] == ["-m", "repro.cli"]:
        import repro.cli

        entry, args = repro.cli.main, argv[2:]
    else:
        entry, args = forkserver_campaign.main, argv[1:]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = entry(args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a failed command is a failed check
            code = 1
            traceback.print_exc(file=err)
    return Outcome(cmd, code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def _span_count(recorder: SpanRecorder, name: str, lo: int, hi: int) -> int:
    nid = recorder.name_id(name)
    return sum(1 for i in range(lo, hi) if recorder.name_ids[i] == nid)


def run_pass(commands: list[Command], checks: Checks, recorder: SpanRecorder,
             capture: layers.Capture, count_check: bool = False) -> PassResult:
    tables: dict = {}
    outcomes = []
    for cmd in commands:
        capture.results.clear()
        lo, steps = len(recorder), capture.counts["runtime.steps"]
        out = execute(cmd)
        evaluate(out, checks, tables, objects=capture.results)
        outcomes.append(out)
        if count_check and out.telemetry:
            ends = [r for r in out.telemetry if r["event"] == "cell_end"]
            want_runs = sum(r["executions"] + r["replays"] for r in ends)
            want_steps = sum(r["steps"] for r in ends)
            runs = _span_count(recorder, "runtime.run", lo, len(recorder))
            traced_steps = capture.counts["runtime.steps"] - steps
            checks.check(
                (runs, traced_steps) == (want_runs, want_steps),
                f"{cmd.kind}: traced executions/steps {runs}/{traced_steps} != telemetry "
                f"cell_end totals {want_runs}/{want_steps} (a wrapper misses calls)",
            )
    return PassResult(outcomes)


def _traced_pass(label: str, workload: str, seed: int, quick: bool, work: Path,
                 checks: Checks, install, workers: int | None = 0, count_check: bool = False):
    """One in-process pass in its own work directory; ``workers`` replaces
    every campaign's ``--parallel`` (None keeps the workload's own)."""
    (work / label).mkdir(parents=True)
    commands = [c.with_parallel(workers) if workers is not None and c.parallel else c
                for c in workloads.commands(workload, seed, work / label, quick)]
    recorder, capture = SpanRecorder(), layers.Capture()
    patcher = Patcher(recorder)
    install(patcher, capture)
    try:
        result = run_pass(commands, checks, recorder, capture, count_check)
    finally:
        patcher.restore()
        forkserver_campaign.stop_forkserver()
    return result, recorder, capture


def _with_workers(patcher: Patcher, capture: layers.Capture) -> None:
    layers.install_campaign_boundary(patcher, capture)
    layers.install_workers(patcher)


def run(workload: str, seed: int, quick: bool, work: Path, checks: Checks,
        record: dict) -> dict[str, float]:
    metrics = cli_import(checks)
    mods = layers.load()
    record["context"]["start_method"] = mods["repro.harness.parallel"]._default_start_method()
    # Construct every program once before the first pass, so no pass pays
    # first-use imports the others do not.
    for cmd in workloads.commands(workload, seed, work, quick):
        for name in cmd.programs:
            mods["repro.bench.registry"].get(name)
    args = (workload, seed, quick, work, checks)

    # Untraced passes bracket the traced one, so a host drifting in speed
    # does not read as tracing overhead.
    plain, plain_rec, _ = _traced_pass("A", *args, layers.install_campaign_boundary)
    traced, recorder, capture = _traced_pass("B", *args, layers.install_layers, count_check=True)
    metrics.update(layers.layer_metrics(recorder, capture))
    checks.check(recorder.foreign_calls == 0,
                 f"{recorder.foreign_calls} traced calls came from another thread")
    spans_path = STATE / "runs" / f"{workload}-seed{seed}-spans.jsonl.gz"
    recorder.write(spans_path)
    record["spans"] = str(spans_path)
    del recorder, capture
    again, again_rec, _ = _traced_pass("A2", *args, layers.install_campaign_boundary)
    real, real_rec, _ = _traced_pass("C", *args, _with_workers, workers=None)
    metrics.update(layers.worker_metrics(real_rec))

    plain_wall = (plain.wall_s + again.wall_s) / 2
    plain_run_s = sum(layers.worker_metrics(r)["harness.parallel.run_s"]
                      for r in (plain_rec, again_rec)) / 2
    workers = max(o.cmd.parallel for o in real.outcomes)
    slices = [r for o in real.outcomes for r in o.telemetry
              if r["event"] in ("cell_end", "cell_error")]
    keys = {(r["tool"], r["program"]) for r in slices}
    real_run_s = metrics["harness.parallel.run_s"]
    metrics["harness.parallel.overhead_frac"] = (
        1.0 - plain_run_s / (workers * real_run_s) if workers and real_run_s else 0.0
    )
    metrics["harness.parallel.key_reuse_frac"] = 1.0 - len(keys) / len(slices) if slices else 0.0
    metrics["harness.parallel.retries"] = sum(
        1 for o in real.outcomes for r in o.telemetry if r["event"] == "cell_retry"
    )
    metrics["harness.telemetry.bytes"] = sum(
        Path(o.cmd.telemetry).stat().st_size for o in real.outcomes
        if o.cmd.telemetry and Path(o.cmd.telemetry).exists()
    )
    metrics["trace.overhead_frac"] = traced.wall_s / plain_wall - 1.0

    digests = {"A": plain.digest, "B": traced.digest, "A2": again.digest, "C": real.digest}
    checks.check(len(set(digests.values())) == 1, f"pass digests differ: {digests}")
    record["digest"] = cross_checks(workload, quick, [traced], checks)
    record["pass_wall_s"] = {"in-process": [plain.wall_s, again.wall_s],
                             "traced": traced.wall_s, "real-workers": real.wall_s}
    return metrics
