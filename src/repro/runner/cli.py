"""The front door: regenerate the whole evaluation in one command.

Examples
--------
::

    python -m repro.runner                       # every figure
    python -m repro.runner --workers 4           # same bytes, faster
    python -m repro.runner fig9 fig10 --fast     # a subset, short runs
    python -m repro.runner --with-chaos          # + the chaos campaign

Every invocation executes every selected spec; reports land in
``--output-dir`` (default ``reports``, or ``reports/fast`` with
``--fast``) via atomic writes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.checkpoint.policy import (
    GRACEFUL_EXIT_CODE,
    InterruptFlag,
)
from repro.fsutil import atomic_write_json, atomic_write_text
from repro.harness.figures import FIGURES
from repro.obs.context import Observability
from repro.runner.executor import RunReport, run_specs
from repro.runner.suite import (
    chaos_spec,
    figure_suite,
    scale_suite,
    topo_suite,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description=(
            "Parallel regeneration of the IQ-Paths evaluation."
        ),
    )
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="FIGURE",
        help=(
            "figures to run (default: all); see --list for names"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list known figures and exit"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (0 = inline, no isolation; default 1)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="shorter runs (same structure, CI-friendly)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override every figure's canonical seed",
    )
    parser.add_argument(
        "--with-chaos",
        action="store_true",
        help="also run the canonical seeded chaos campaign",
    )
    parser.add_argument(
        "--with-scale",
        action="store_true",
        help=(
            "also run the scale suite: every workload scenario plus "
            "the baseline capacity envelope (shrunk under --fast)"
        ),
    )
    parser.add_argument(
        "--with-topo",
        action="store_true",
        help=(
            "also run the generated-topology suite: churn + capacity "
            "envelope on one preset per topology family (shrunk under "
            "--fast)"
        ),
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "where report .txt files go "
            "(default: reports, or reports/fast with --fast)"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="S",
        help="per-spec timeout in seconds (default 600)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts after a crash/timeout (default 1)",
    )
    parser.add_argument(
        "--hang-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "heartbeat watchdog: terminate+retry a worker silent this "
            "long (default: disabled)"
        ),
    )
    parser.add_argument(
        "--checkpoint-root",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "enable crash-safe tasks: per-spec checkpoints under DIR, "
            "resumed across retries and across interrupted runs"
        ),
    )
    parser.add_argument(
        "--summary-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write the run summary (counts, per-spec records) as JSON",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="PATH",
        help="export the runner's obs trace as JSONL",
    )
    return parser


def validate_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Refuse counts and budgets :func:`run_specs` cannot honour.

    Through ``parser.error``, so the message carries the usage text and
    exit code 2 instead of a traceback or a run of instant timeouts.
    """
    for dest in ("workers", "retries"):
        value = getattr(args, dest)
        if value < 0:
            parser.error(f"--{dest} must be >= 0, got {value}")
    for dest in ("timeout", "hang_timeout"):
        value = getattr(args, dest)
        if value is not None and value <= 0:
            parser.error(
                f"--{dest.replace('_', '-')} must be positive, got {value}"
            )


def _print_report(report: RunReport) -> None:
    for outcome in report.outcomes:
        tag = outcome.status.upper()
        line = f"[{tag:>7}] {outcome.spec.name}"
        if outcome.status == "ok":
            line += f"  ({outcome.duration_s:.1f}s"
            if outcome.attempts > 1:
                line += f", {outcome.attempts} attempts"
            line += ")"
        elif not outcome.ok:
            line += f"  {outcome.error}"
        print(line)
    print(
        f"{len(report.outcomes)} specs: {report.executed} executed, "
        f"{report.failed} failed in {report.wall_s:.1f}s "
        f"with {report.workers} worker(s)"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_args(parser, args)
    if args.list:
        for name in sorted(FIGURES):
            print(name)
        return 0

    unknown = [t for t in args.targets if t not in FIGURES]
    if unknown:
        print(
            f"unknown figure(s) {unknown}; known: {sorted(FIGURES)}",
            file=sys.stderr,
        )
        return 2

    specs = figure_suite(
        args.targets or None, fast=args.fast, seed=args.seed
    )
    if args.with_chaos:
        specs.append(chaos_spec())
    if args.with_scale:
        specs.extend(scale_suite(fast=args.fast))
    if args.with_topo:
        specs.extend(topo_suite(fast=args.fast))

    output_dir = args.output_dir
    if output_dir is None:
        output_dir = Path("reports/fast") if args.fast else Path("reports")

    obs = (
        Observability() if args.trace_out is not None else None
    )

    flag = InterruptFlag().install()
    try:
        report = run_specs(
            specs,
            workers=args.workers,
            timeout_s=args.timeout,
            retries=args.retries,
            obs=obs,
            hang_timeout_s=args.hang_timeout,
            checkpoint_root=(
                str(args.checkpoint_root)
                if args.checkpoint_root is not None
                else None
            ),
            interrupt=flag,
        )
    finally:
        flag.restore()

    written = 0
    for outcome in report.outcomes:
        if outcome.ok and outcome.payload is not None:
            atomic_write_text(
                output_dir / f"{outcome.spec.name}.txt",
                outcome.payload["report"],
            )
            written += 1

    _print_report(report)
    if written:
        print(f"wrote {written} report(s) to {output_dir}")

    if args.summary_json is not None:
        summary = report.summary_record()
        summary["specs"] = [
            o.record(i) for i, o in enumerate(report.outcomes)
        ]
        atomic_write_json(args.summary_json, summary)
        print(f"wrote summary to {args.summary_json}")
    if obs is not None and args.trace_out is not None:
        n = obs.trace.export_jsonl(args.trace_out)
        print(f"wrote {n} trace events to {args.trace_out}")

    if report.interrupted:
        print(
            f"interrupted ({flag.signal_name}): "
            f"{report.interrupted} spec(s) abandoned; "
            "rerun the same command to finish them",
            file=sys.stderr,
        )
        return GRACEFUL_EXIT_CODE
    return 0 if report.all_ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
