"""Self-tests of the benchmark: span arithmetic, the tail rule, digests, the
traced counts, and a quick end-to-end run of every workload.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import digest as dg  # noqa: E402
from perfbench import measure  # noqa: E402
from perfbench.measure import tail  # noqa: E402
from perfbench.spans import Patcher, SpanRecorder, self_times  # noqa: E402
from perfbench.traced import scipy_import_seconds  # noqa: E402
from perfbench.workloads import BENCH_PROGRAMS, PY_TARGETS, WORKLOADS, commands  # noqa: E402


# -- self time -------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    root = rec.add("a", 0.0, 10.0)
    child = rec.add("b", 1.0, 4.0, root)
    rec.add("c", 2.0, 3.0, child)  # grandchild: covered by b, not by a
    rec.add("b", 6.0, 7.5, root)
    selfs, calls = self_times(rec)
    assert selfs["a"] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs["b"] == pytest.approx((3.0 - 1.0) + 1.5)
    assert selfs["c"] == pytest.approx(1.0)
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_self_time_merges_overlapping_children():
    rec = SpanRecorder()
    root = rec.add("p", 0.0, 10.0)
    rec.add("x", 1.0, 5.0, root)
    rec.add("y", 3.0, 6.0, root)  # overlaps x: the union is 1..6
    rec.add("z", 4.0, 4.5, root)  # inside the union: covers nothing new
    rec.add("x", 8.0, 9.0, root)
    selfs, _ = self_times(rec)
    assert selfs["p"] == pytest.approx(10.0 - 5.0 - 1.0)


def test_same_name_nesting_counts_one_call():
    rec = SpanRecorder()
    outer = rec.add("run", 0.0, 4.0)
    rec.add("run", 1.0, 3.0, outer)  # a subclass calling super()
    selfs, calls = self_times(rec)
    assert calls["run"] == 1
    assert selfs["run"] == pytest.approx(4.0)


def test_wrappers_record_nesting_and_restore():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    originals = dict(Box.__dict__)
    rec = SpanRecorder()
    patcher = Patcher(rec)
    seen = []
    patcher.methods(Box, ["outer", "inner"], lambda cls, attr: f"box.{attr}",
                    lambda args, result: seen.append(result))
    assert Box().outer() == 42
    assert [rec.names[i] for i in rec.name_ids] == ["box.outer", "box.inner"]
    assert list(rec.parents) == [-1, 0]
    assert seen == [41, 42]
    patcher.restore()
    assert Box.__dict__["outer"] is originals["outer"]
    assert Box.__dict__["inner"] is originals["inner"]


# -- tail percentile ---------------------------------------------------------
def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 101)]
    value, percentile, beyond = tail(samples)
    assert value == 90.0
    assert percentile == pytest.approx(90.0)
    assert beyond == sum(1 for s in samples if s > value) == 10


def test_tail_with_few_samples_reports_the_shortfall():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    value, percentile, beyond = tail([float(i) for i in range(14)])
    assert (value, beyond) == (3.0, 10)
    assert percentile == pytest.approx(100 * 4 / 14)


# -- processes ---------------------------------------------------------------


def test_run_process_waits_for_what_the_command_left_behind():
    # The command exits at once and leaves a child that runs on: the run
    # is over only when that child is gone too.
    leave = ("import subprocess, sys; "
             "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(0.5)']); "
             "print(p.pid)")
    done = measure.run_process(["-c", leave], ROOT)
    assert done.code == 0
    orphan = int(done.stdout.split()[0])
    with pytest.raises(ProcessLookupError):
        os.kill(orphan, 0)


def test_run_process_kills_leftovers_after_the_grace(monkeypatch):
    monkeypatch.setattr(measure, "LEFTOVER_GRACE_S", 0.3)
    leave = ("import subprocess, sys; "
             "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
             "print(p.pid)")
    done = measure.run_process(["-c", leave], ROOT)
    orphan = int(done.stdout.split()[0])
    with pytest.raises(ProcessLookupError):
        os.kill(orphan, 0)


# -- digests -----------------------------------------------------------------
CELLS = [
    ("campaign", "RFF", "CS/account", 0, True, 3, 3),
    ("campaign", "PCT3", "CS/account", 0, False, None, 100),
]


def test_digest_ignores_order_and_sees_every_field():
    assert dg.digest(CELLS) == dg.digest(list(reversed(CELLS)))
    changed = [CELLS[0], CELLS[1][:6] + (99,)]
    assert dg.digest(changed) != dg.digest(CELLS)


def test_telemetry_cells_match_result_objects():
    records = [
        {"event": "cell_end", "tool": "RFF", "program": "CS/account", "trial": 0,
         "found": True, "executions": 3},
        {"event": "cell_start", "tool": "PCT3", "program": "CS/account", "trial": 0},
        {"event": "cell_end", "tool": "PCT3", "program": "CS/account", "trial": 0,
         "found": False, "executions": 100},
    ]
    assert dg.telemetry_cells("campaign", records) == sorted(CELLS, key=repr)


def test_fuzz_and_run_outputs_parse_to_cells():
    fuzz_out = "program:            CS/account\nschedules executed: 7\nfirst crash at:     7\n"
    assert dg.fuzz_cell(fuzz_out, "CS/account", 5) == ("fuzz", "RFF", "CS/account", 5, True, 7, 7)
    run_out = "PCT3 on CS/lazy01: bug (assertion) at schedule 4 after 4 schedules\n"
    assert dg.run_cell(run_out, "CS/lazy01", 1) == ("run", "PCT3", "CS/lazy01", 1, True, 4, 4)
    with pytest.raises(ValueError):
        dg.run_cell("garbage", "CS/lazy01", 1)


def test_result_tables_drop_the_throughput_block():
    out = "table\n\nfigure\n\nCampaign throughput\n  wall time: 1.0s\n\nledger\n"
    assert dg.result_tables(out) == ["table", "figure", "ledger"]


def test_scipy_share_counts_outermost_scipy_modules():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       200 |        350 |   scipy",
        "import time:        30 |         30 |     scipy.stats._x",
        "import time:       100 |        130 |   scipy.stats",
        "import time:        10 |        490 | repro.harness.stats",
    ])
    assert scipy_import_seconds(report) == pytest.approx((350 + 130) / 1e6)


# -- workloads ----------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workloads_select_no_mechanism(workload, tmp_path):
    for cmd in commands(workload, 0, tmp_path):
        for flag in ("--engine", "--batch-size", "--pool-size", "--checkpoint"):
            assert flag not in cmd.argv
        assert cmd.parallel <= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    assert commands(workload, 7, tmp_path) == commands(workload, 7, tmp_path)


def test_program_lists_match_the_registry():
    sys.path.insert(0, str(ROOT / "src"))
    from repro import bench

    assert list(BENCH_PROGRAMS) == bench.names()
    assert list(PY_TARGETS) == bench.py_names()


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


# -- quick end-to-end ------------------------------------------------------------
def _run(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_mode_runs_end_to_end(workload, trace):
    code, result = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", trace, "--quick")
    assert code == 0 and result is not None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _run("--workload", "sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                        cwd=tmp_path)
    assert code != 0 and result is None
