#!/usr/bin/env python
"""Kill-injection crash test: SIGKILL workers, resume, compare bytes.

Drives :func:`repro.harness.crash.run_crash_test`: computes the
uninterrupted golden workload report, then runs the identical
simulation through the supervised executor with seeded SIGKILL points
armed, letting the supervisor restart the worker from its last
verified checkpoint after every kill.  Exits nonzero unless every
survivor report is byte-identical to its golden and took exactly one
attempt per kill plus the surviving one.

By default the test runs twice — serial (``--workers 1``) and parallel
(``--workers 2``) executors must both reproduce the golden bytes::

    PYTHONPATH=src python tools/run_crashtest.py
    python tools/run_crashtest.py --scenario flash-crowd-chaos --kills 5
    python tools/run_crashtest.py --workers 4 --manifest crash.jsonl

Pass ``--workers N`` to pin a single executor width instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

# Allow running straight from a checkout without PYTHONPATH.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.harness.crash import run_crash_test  # noqa: E402
from repro.workload.scenarios import SCENARIOS  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python tools/run_crashtest.py",
        description=(
            "SIGKILL workload workers at seeded points, resume them "
            "from checkpoints, and assert byte-identical reports."
        ),
    )
    parser.add_argument(
        "--scenario", default="baseline", choices=sorted(SCENARIOS),
        help="workload scenario to crash-test (default: baseline)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the run and its kill points (default: 0)",
    )
    parser.add_argument(
        "--kills", type=int, default=3,
        help="seeded SIGKILL points per run (default: 3)",
    )
    parser.add_argument(
        "--duration", type=float, default=20.0,
        help="virtual seconds per run (default: 20)",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=150,
        help="session-plan truncation (default: 150; 0 = unlimited)",
    )
    parser.add_argument(
        "--rate-scale", type=float, default=1.0,
        help="arrival-rate multiplier (default: 1.0)",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=2.0,
        help="virtual seconds between snapshots (default: 2)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=(
            "pin one executor width; default runs serial (1) and "
            "parallel (2) back to back"
        ),
    )
    parser.add_argument(
        "--manifest", type=Path, default=None, metavar="PATH",
        help="stream the survivor runs' JSONL manifest(s) to PATH",
    )
    parser.add_argument(
        "--json-out", type=Path, default=None, metavar="PATH",
        help="write the full crash-test summaries (JSON) here",
    )
    return parser


def _render(summary: dict) -> str:
    verdict = "IDENTICAL" if summary["identical"] else "MISMATCH"
    lines = [
        f"crash test [{verdict}] scenario={summary['scenario']!r} "
        f"seed={summary['seed']} workers={summary['workers']}",
        f"  kill points: "
        f"{', '.join(f'{t:.3f}s' for t in summary['kill_points'])}",
        f"  survivor: status={summary['status']} "
        f"attempts={summary['attempts']} "
        f"(kills + 1 = {len(summary['kill_points']) + 1})",
        f"  golden   checksum {summary['golden_checksum']}",
        f"  survivor checksum {summary['survivor_checksum']}",
    ]
    if summary["error"]:
        lines.append(f"  error: {summary['error']}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    widths = [args.workers] if args.workers is not None else [1, 2]
    max_sessions = args.max_sessions if args.max_sessions > 0 else None

    summaries = []
    for workers in widths:
        manifest = None
        if args.manifest is not None:
            manifest = (
                args.manifest
                if len(widths) == 1
                else args.manifest.with_suffix(
                    f".w{workers}{args.manifest.suffix}"
                )
            )
        summary = run_crash_test(
            scenario=args.scenario,
            seed=args.seed,
            kills=args.kills,
            duration=args.duration,
            max_sessions=max_sessions,
            checkpoint_every=args.checkpoint_every,
            workers=workers,
            rate_scale=args.rate_scale,
            manifest_path=manifest,
        )
        summaries.append(summary)
        print(_render(summary))

    if args.json_out is not None:
        args.json_out.write_text(
            json.dumps(summaries, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json_out}")

    if all(s["passed"] for s in summaries):
        print(f"PASS: {len(summaries)} crash-test run(s) byte-identical")
        return 0
    print(
        "FAIL: survivor diverged from golden or a kill never fired",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
