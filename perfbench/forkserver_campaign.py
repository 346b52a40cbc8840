"""A campaign under the ``forkserver`` start method, through the library.

``rff campaign`` picks the package's default start method, which is
``fork`` through Python 3.11 and ``forkserver`` from 3.12.  To measure the
3.12+ default on an older interpreter, this script runs the same campaign
as ``rff campaign --parallel N --trials T --tools ... --programs ...
--budget B --seed S --telemetry FILE`` with
``ParallelCampaign(start_method="forkserver")`` and prints the same
result table.

    PYTHONPATH=src python3 perfbench/forkserver_campaign.py --parallel 2 \\
        --tools RFF PCT3 --programs CS/account --budget 200 --telemetry t.jsonl
"""

from __future__ import annotations

import argparse
import multiprocessing.forkserver
import multiprocessing.resource_tracker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parallel", type=int, default=2)
    parser.add_argument("--trials", type=int, default=1)
    parser.add_argument("--tools", nargs="+", required=True)
    parser.add_argument("--programs", nargs="+", required=True)
    parser.add_argument("--budget", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--telemetry", required=True)
    args = parser.parse_args(argv)

    from repro.harness.campaign import CampaignConfig
    from repro.harness.parallel import ParallelCampaign
    from repro.harness.reporting import appendix_b_table
    from repro.harness.telemetry import JsonlSink

    config = CampaignConfig(trials=args.trials, budget=args.budget, base_seed=args.seed)
    with JsonlSink(args.telemetry) as sink:
        campaign = ParallelCampaign(config, processes=args.parallel, telemetry=sink,
                                    start_method="forkserver")
        result = campaign.run(list(args.tools), list(args.programs))
    print(appendix_b_table(result))
    return 0


def stop_forkserver() -> None:
    """Stop this process's fork server and resource tracker, if they were
    started, and reap both.

    Left alone, each exits only once it sees this process's end of its
    pipe close, so both would outlive the process that started them.
    """
    for helper in (getattr(multiprocessing.forkserver, "_forkserver", None),
                   getattr(multiprocessing.resource_tracker, "_resource_tracker", None)):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_forkserver()
    raise SystemExit(code)
