"""The repository benchmark: bugs found per wall-second through the real CLI.

    python3 perfbench/run.py --workload sweep|durable|cold --seed N \\
        --seconds S --trace 0|1 [--quick]

``--trace 0`` runs the workload's ``rff`` command lines as fresh
processes, one after another, and reports the end-to-end metrics.
``--trace 1`` runs the same command lines inside this process (in-process
engine, ``--parallel 0``) with spans around every layer's public calls,
and again with real workers for the parent-side worker metrics, and
reports the per-layer metrics.  Both check the results (see README.md);
the last line of standard output is one JSON object, and the exit code is
non-zero when a check failed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import measure, workloads  # noqa: E402
from perfbench.forkserver_campaign import stop_forkserver  # noqa: E402
from perfbench.results import STATE, Checks, cross_checks, run_fresh  # noqa: E402

#: Expected seconds of one pass over a workload's commands (2 vCPU); a run
#: makes ``round(seconds / PASS_SECONDS)`` passes, at least one, so the
#: amount of work in a run is fixed by ``--seconds`` alone.
PASS_SECONDS = {"sweep": 15.0, "durable": 18.0, "cold": 22.0}
#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_REPEATS = 3

#: The metric catalogue: names, units and bounds of every metric.
SPEC = ROOT / "BENCHMARK.json"


def end_to_end(workload: str, seed: int, seconds: int, quick: bool, work: Path,
               checks: Checks, record: dict) -> dict:
    count = 1 if quick else max(1, round(seconds / PASS_SECONDS[workload]))
    programs = sorted({p for c in workloads.commands(workload, seed, work) for p in c.programs})
    per_pass = len(workloads.commands(workload, seed, work, quick))
    total = count * per_pass
    # Set-up samples are spread over the run (before the first command,
    # between commands, after the last), so their median sees the host
    # over the same stretch of time as the commands do.
    due = Counter(round(i * total / (SETUP_REPEATS - 1)) for i in range(SETUP_REPEATS))
    setups = []

    def sample_setup(position: int) -> None:
        for _ in range(due[position]):
            elapsed, method = measure.setup_once(ROOT, programs)
            setups.append(elapsed)
            record["context"]["start_method"] = method

    passes = []
    for index in range(count):
        pass_dir = work / f"pass{index}"
        pass_dir.mkdir(parents=True)
        commands = workloads.commands(workload, seed, pass_dir, quick)
        passes.append(run_fresh(commands, checks,
                                before=lambda i, base=index * per_pass: sample_setup(base + i)))
    sample_setup(total)
    record["digest"] = cross_checks(workload, quick, passes, checks)
    latencies = [o.wall_s for p in passes for o in p.outcomes if not o.cmd.follow_up]
    tail_value, tail_pct, beyond = measure.tail(latencies)
    found = [c[5] for c in passes[0].cells if c[4]]
    walls = [p.wall_s for p in passes]
    record["latency_tail"] = {"percentile": tail_pct, "samples": len(latencies),
                              "beyond": beyond}
    record["commands"] = [
        {"kind": o.cmd.kind, "argv": list(o.cmd.argv), "code": o.code, "wall_s": o.wall_s,
         "cpu_s": o.cpu_s, "rss_mb": o.rss_mb, "schedules": o.schedules}
        for p in passes for o in p.outcomes
    ]
    record["setup_samples"] = setups
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(sum(o.cpu_s for o in p.outcomes) for p in passes),
        "schedules_per_s": statistics.median(p.schedules / p.wall_s for p in passes),
        "bugs_found": len(found),
        "bugs_per_s": statistics.median(len(found) / w for w in walls),
        "schedules_to_bug_p50": statistics.median(found) if found else 0.0,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "peak_rss_mb": max(o.rss_mb for p in passes for o in p.outcomes),
    }


def stop_processes() -> None:
    """End every process this run started: the in-process campaigns'
    workers and multiprocessing helpers, then whatever else is left."""
    stop_forkserver()
    for child in multiprocessing.active_children():
        child.join(measure.LEFTOVER_GRACE_S)
        if child.is_alive():
            child.kill()
            child.join()
    measure.reap_children()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one pass: a smoke test of the whole pipeline")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    measure.become_subreaper()

    work = STATE / "work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    checks = Checks()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "context": measure.context(ROOT)}
    record["context"]["calibration_before_mops"] = measure.calibrate()
    try:
        if args.trace:
            from perfbench import traced

            measured = traced.run(args.workload, args.seed, args.quick, work, checks, record)
        else:
            measured = end_to_end(args.workload, args.seed, args.seconds, args.quick, work,
                                  checks, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        stop_processes()
    section = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    metrics = {name: measured[name] for name in units}
    record["context"]["calibration_after_mops"] = measure.calibrate()
    failed = len(checks.failures)
    error_rate = failed / max(1, checks.attempted)
    record.update(metrics=metrics, attempted=checks.attempted, failed=failed,
                  failures=checks.failures, error_rate=error_rate)
    runs = STATE / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1, default=str))

    ctx = record["context"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={ctx['python']} "
          f"start_method={ctx.get('start_method', '?')} source={ctx['source']}")
    print(f"# host: calibration {ctx['calibration_before_mops']:.2f} -> "
          f"{ctx['calibration_after_mops']:.2f} Mops/s, loadavg {ctx['loadavg']}")
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    if not args.trace:
        tail = record["latency_tail"]
        print(f"# latency_tail_s is p{tail['percentile']:.1f} of {tail['samples']} commands "
              f"({tail['beyond']} beyond it)")
    print(f"{'error_rate':34s} {error_rate:14.6g} ratio  ({failed} of {checks.attempted})")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
