"""``python -m bench run|compare`` — see ``bench/README.md``."""

from __future__ import annotations

import argparse
import sys

from bench import ROOT


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run",
        help="measure one workload (--workload) or all of them",
    )
    run.add_argument("--workload", help="run just this one, in-process")
    run.add_argument("--seed", type=int, default=12)
    run.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="length of a measured pass (default: run_seconds)",
    )
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplies input sizes; geometry never changes",
    )
    run.add_argument(
        "--details",
        help="with --workload: also write sample counts / spans here",
    )
    run.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="without --workload: untraced runs per workload",
    )
    run.add_argument(
        "--out",
        default=str(ROOT / "bench" / "results"),
        help="without --workload: directory the result rows go to",
    )

    compare = commands.add_parser(
        "compare", help="apply each metric's bound to two result files"
    )
    compare.add_argument("baseline")
    compare.add_argument("candidate")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from bench.compare import compare_files

        return compare_files(args.baseline, args.candidate)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"bench: no program to measure ({ROOT / 'src' / 'repro'}"
            " is missing)",
            file=sys.stderr,
        )
        return 2
    from bench import runner

    if args.workload:
        return runner.run_one(args)
    return runner.run_all(args)


if __name__ == "__main__":
    sys.exit(main())
