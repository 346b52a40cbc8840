"""The three workloads, as seeded lists of ``rff`` command lines.

A workload says only *what* to run: programs, tools, trials, budget,
sanitizers, durability and allocator.  It never selects a mechanism
(engine, batch size, pool size, checkpoint file), so a change that
removes or replaces a mechanism shows up here without an edit.

Every command is a fresh interpreter, run one after another by one
benchmark process (a closed loop, at most ``--parallel 2`` workers
underneath).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sweep", "durable", "cold")

#: The 49 modeled benchmark programs (the paper's Appendix B rows).
BENCH_PROGRAMS = (
    "CB/aget-bug2", "CB/pbzip2-0.9.4", "CB/stringbuffer-jdk1.4", "CS/account",
    "CS/bluetooth_driver", "CS/carter01", "CS/circular_buffer", "CS/deadlock01", "CS/lazy01",
    "CS/queue", "CS/reorder_10", "CS/reorder_100", "CS/reorder_20", "CS/reorder_3",
    "CS/reorder_4", "CS/reorder_5", "CS/reorder_50", "CS/stack", "CS/token_ring",
    "CS/twostage", "CS/twostage_100", "CS/twostage_20", "CS/twostage_50", "CS/wronglock",
    "CS/wronglock_3", "Chess/InterlockedWorkStealQueue",
    "Chess/InterlockedWorkStealQueueWithState", "Chess/StateWorkStealQueue",
    "Chess/WorkStealQueue", "ConVul-CVE-Benchmarks/CVE-2009-3547",
    "ConVul-CVE-Benchmarks/CVE-2011-2183", "ConVul-CVE-Benchmarks/CVE-2013-1792",
    "ConVul-CVE-Benchmarks/CVE-2015-7550", "ConVul-CVE-Benchmarks/CVE-2016-1972",
    "ConVul-CVE-Benchmarks/CVE-2016-1973", "ConVul-CVE-Benchmarks/CVE-2016-7911",
    "ConVul-CVE-Benchmarks/CVE-2016-9806", "ConVul-CVE-Benchmarks/CVE-2017-15265",
    "ConVul-CVE-Benchmarks/CVE-2017-6346", "Inspect_benchmarks/boundedBuffer",
    "Inspect_benchmarks/ctrace-test", "Inspect_benchmarks/qsort_mt", "RADBench/bug4",
    "RADBench/bug5", "RADBench/bug6", "SafeStack", "Splash2/barnes", "Splash2/fft",
    "Splash2/lu",
)

#: The 13 real-Python targets of the ``py:`` namespace.
PY_TARGETS = (
    "py:abba_deadlock", "py:barrier_phase", "py:bounded_buffer", "py:counter_locked",
    "py:counter_race", "py:dcl_singleton", "py:fanin_futures", "py:global_counter",
    "py:lost_signal", "py:queue_toctou", "py:rlock_cache", "py:sem_pool", "py:single_notify",
)

#: The ``cold`` mix: (command, program, --seed).  Each finds its bug within
#: a few dozen schedules, so every command reports one; the programs span
#: the modeled bench, the generated ``gen:`` namespace and real Python.
#: The mix is fixed so its counts compare across seeds; the seed orders it.
COLD_MIX = (
    ("fuzz", "CS/account", 1), ("fuzz", "CS/carter01", 2), ("fuzz", "gen:2001", 3),
    ("fuzz", "gen:2003", 4), ("fuzz", "py:counter_race", 5),
    ("run", "CS/lazy01", 1), ("run", "CB/aget-bug2", 2), ("run", "gen:2004", 3),
    ("run", "py:single_notify", 4), ("run", "py:sem_pool", 5),
)
#: Programs of the two small ``cold`` campaigns (fork and forkserver).
COLD_CAMPAIGN = ("CS/token_ring", "py:queue_toctou")

DEFAULT_SEED = 0
#: Every campaign's ``--seed``.  The workload seed orders the inputs but
#: leaves each cell's own seed alone, so bugs found and schedules-to-bug
#: are the same for every workload seed and compare across seeds.
CAMPAIGN_SEED = "1234"


@dataclass(frozen=True)
class Command:
    """One ``rff`` invocation and what the benchmark checks about it."""

    #: sweep/durable: campaign, resume, store-verify; cold: fuzz, run,
    #: campaign, campaign-forkserver.
    kind: str
    #: Arguments after the interpreter (``-m repro.cli ...`` or a script).
    argv: tuple[str, ...]
    #: The program name of a fuzz/run command.
    program: str | None = None
    #: The --seed of a fuzz/run command.
    seed: int | None = None
    telemetry: str | None = None
    store: str | None = None
    #: Worker processes of a campaign (0 for fuzz/run).
    parallel: int = 0
    #: Whether every cell of this campaign must find its bug.
    all_found: bool = False
    #: Program names the command constructs (for ``setup_s``).
    programs: tuple[str, ...] = field(default=(), compare=False)
    #: A check on what an earlier command left (the ``durable`` resume and
    #: store verification): its time counts in ``wall_s``, but it is not a
    #: latency sample.  Each is a short process timed mostly by
    #: ``import repro.cli``, which ``cold`` measures; as one of three
    #: samples it made ``durable``'s latency swing past its bound.
    follow_up: bool = False

    def with_parallel(self, workers: int) -> "Command":
        """The same command with ``--parallel`` replaced (0 = in-process)."""
        argv = list(self.argv)
        argv[argv.index("--parallel") + 1] = str(workers)
        return Command(**{**self.__dict__, "argv": tuple(argv), "parallel": workers})


def _cli(*args: str) -> tuple[str, ...]:
    return ("-m", "repro.cli", *args)


def _ordered(seed: int, programs: tuple[str, ...]) -> tuple[str, ...]:
    """The seed's order of a program list.  Cell seeds derive from the
    campaign seed and the trial alone, so the order changes which cells
    meet in the workers, never what a cell computes."""
    ordered = list(programs)
    random.Random(seed).shuffle(ordered)
    return tuple(ordered)


def sweep(seed: int, work: Path, quick: bool = False) -> list[Command]:
    """All 49 bench programs x RFF/PCT3/POS/Random, one trial, one pass."""
    telemetry = str(work / "sweep.jsonl")
    programs = _ordered(seed, BENCH_PROGRAMS[::12] if quick else BENCH_PROGRAMS)
    argv = _cli("campaign", "--parallel", "2", "--trials", "1",
                "--tools", "RFF", "PCT3", "POS", "Random", "--programs", *programs,
                "--budget", "8" if quick else "100", "--seed", CAMPAIGN_SEED,
                "--telemetry", telemetry)
    return [Command(kind="campaign", argv=argv, telemetry=telemetry, parallel=2,
                    programs=programs)]


def durable(seed: int, work: Path, quick: bool = False) -> list[Command]:
    """Supervised, store-backed, sanitized, replay-verified, adaptively
    allocated campaign over ``gen:`` and ``py:`` targets, then a resume of
    the finished store and a store verification."""
    store = str(work / "store")
    gens = tuple(f"gen:{2000 + i}" for i in range(2 if quick else 25))
    programs = _ordered(seed, gens + (PY_TARGETS[:2] if quick else PY_TARGETS))
    shared = ["--durable", "--store", store,
              "--sanitize", "race,lockset,lockorder", "--verify-replays", "3",
              "--allocator", "laplace", "--alloc-rounds", "2" if quick else "4",
              "--programs", *programs, "--tools", "RFF", "PCT3", "--trials", "2",
              "--budget", "8" if quick else "60", "--seed", CAMPAIGN_SEED]
    first = str(work / "durable.jsonl")
    again = str(work / "resume.jsonl")
    return [
        Command(kind="campaign", argv=_cli("campaign", "--parallel", "2", *shared,
                                           "--telemetry", first),
                telemetry=first, store=store, parallel=2, programs=programs),
        Command(kind="resume", argv=_cli("campaign", "--parallel", "2", *shared,
                                         "--telemetry", again, "--resume"),
                telemetry=again, store=store, parallel=2, programs=programs, follow_up=True),
        Command(kind="store-verify", argv=_cli("store", "verify", store), store=store,
                follow_up=True),
    ]


def cold(seed: int, work: Path, quick: bool = False) -> list[Command]:
    """A seeded order of short fresh processes: ``rff fuzz`` to the first
    bug, ``rff run --tool PCT3``, and one small 2-worker campaign under
    each start method the package defaults to on a supported interpreter
    (fork through the CLI, forkserver through the library)."""
    mix = COLD_MIX[::5] if quick else COLD_MIX
    picked = COLD_CAMPAIGN[:1] if quick else COLD_CAMPAIGN
    commands: list[Command] = []
    for kind, program, s in mix:
        tool = ("--tool", "PCT3") if kind == "run" else ()
        commands.append(Command(kind=kind, program=program, seed=s,
                                argv=_cli(kind, program, *tool, "--budget", "2000",
                                          "--seed", str(s)),
                                programs=(program,)))
    campaign = ["--parallel", "2", "--trials", "1", "--tools", "RFF", "PCT3",
                "--programs", *picked, "--budget", "2000", "--seed", CAMPAIGN_SEED]
    fork_t, server_t = str(work / "fork.jsonl"), str(work / "forkserver.jsonl")
    commands.append(Command(kind="campaign", argv=_cli("campaign", *campaign, "--telemetry", fork_t),
                            telemetry=fork_t, parallel=2, programs=picked, all_found=True))
    commands.append(Command(kind="campaign-forkserver",
                            argv=("perfbench/forkserver_campaign.py", *campaign,
                                  "--telemetry", server_t),
                            telemetry=server_t, parallel=2, programs=picked, all_found=True))
    random.Random(f"cold:{seed}").shuffle(commands)
    return commands


BUILDERS = {"sweep": sweep, "durable": durable, "cold": cold}


def commands(workload: str, seed: int, work: Path, quick: bool = False) -> list[Command]:
    return BUILDERS[workload](seed, work, quick)
