"""Command line of the measurement spine.

::

    python3 benchmarks/spine/run.py --workload churn --seed 3 \\
        --seconds 10 --trace 0          # one run, as the driver calls it
    python -m benchmarks.spine [--seed N] [--seconds S] [--out PATH]
                                        # all eight, measured + traced
    python -m benchmarks.spine compare A.json B.json

A single-workload run prints one ``spine-detail`` line and then, as the
last line of standard output, the result object of the driver's
contract.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]
if sys.path and Path(sys.path[0]).resolve() == Path(__file__).resolve().parent:
    # Run as a script: our own directory must not shadow the standard
    # library, and ``benchmarks.spine`` must be importable.
    sys.path[0] = str(_ROOT)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.spine", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed budget of one measured run (default: run_seconds of "
             "BENCHMARK.json, twice that when all workloads run)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", help="all-workloads mode: also write the report here"
    )
    return parser


def _single(args, seconds: float) -> int:
    from benchmarks.spine.harness import run_workload
    from benchmarks.spine.spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES

    if args.workload not in WORKLOAD_NAMES:
        print(
            f"unknown workload {args.workload!r}; known: "
            f"{', '.join(WORKLOAD_NAMES)}",
            file=sys.stderr,
        )
        return 2
    import_s = time.perf_counter() - _T0
    result, detail = run_workload(
        args.workload, args.seed, seconds, bool(args.trace), import_s
    )
    units = {m.name: m.unit for m in END_TO_END + PER_LAYER}
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    for problem in detail["problems"]:
        print(f"spine-problem {problem}", file=sys.stderr)
    print("spine-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (_ROOT / "src" / "repro").is_dir():
        print(
            f"benchmarks.spine: no program to measure: {_ROOT / 'src'} "
            "does not hold the repro package",
            file=sys.stderr,
        )
        return 2
    if argv[:1] == ["compare"]:
        from benchmarks.spine.report import compare_main

        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())
    run_seconds = float(declared["run_seconds"])
    if args.workload is not None:
        return _single(args, args.seconds or run_seconds)
    from benchmarks.spine.report import run_all

    # Twice the driver's budget: at least two reps of every workload,
    # so each timing carries a spread ``compare`` can use.
    return run_all(args.seed, args.seconds or 2 * run_seconds, args.out)


if __name__ == "__main__":
    sys.exit(main())
