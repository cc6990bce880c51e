#!/usr/bin/env python
"""The perf ledger: a trajectory of measurement-spine reports.

Subcommands::

    python tools/perf_ledger.py append REPORT.json [--note TEXT]
    python tools/perf_ledger.py check
    python tools/perf_ledger.py show [--metric WORKLOAD/METRIC]

``append`` records the report ``python -m benchmarks.spine --out
REPORT.json`` wrote as one line of ``benchmarks/results/LEDGER.jsonl``:
the report itself (fingerprint, and per workload the digest, the four
end-to-end metrics with min/max and the per-layer values) plus the id
of the machine that measured it, a timestamp and the note.

``check`` is ``python -m benchmarks.spine compare`` applied to the
newest entry and the previous entry from the same machine: the spine's
verdict rows, its bounds (``BENCHMARK.json``), its exit code.  Numbers
from another machine are never a comparison base.

``show`` prints one line per entry; with ``--metric`` the trajectory of
one ``workload/metric`` (end-to-end or per-layer).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Optional

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT))

from benchmarks.spine.report import compare  # noqa: E402

_DEFAULT_LEDGER = _REPO_ROOT / "benchmarks" / "results" / "LEDGER.jsonl"


def machine_id(fingerprint: dict[str, Any]) -> str:
    """Which machine measured a report; wall clocks compare only within one."""
    identity = {k: fingerprint[k] for k in ("cpus", "platform", "python")}
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def make_entry(report: dict[str, Any], note: str = "") -> dict[str, Any]:
    """The ledger line for one spine report."""
    entry = {
        **report,
        "machine": machine_id(report["fingerprint"]),
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
    }
    if note:
        entry["note"] = note
    return entry


def read_entries(ledger: Path) -> list[dict[str, Any]]:
    if not ledger.exists():
        return []
    lines = ledger.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def comparison_base(entries: list[dict[str, Any]]) -> Optional[dict[str, Any]]:
    """The entry the newest one is held against, if there is one."""
    newest = entries[-1]
    for entry in reversed(entries[:-1]):
        if entry["machine"] == newest["machine"]:
            return entry
    return None


def _label(entry: dict[str, Any]) -> str:
    return (
        f"{entry['recorded_at']:<26} "
        f"{entry['fingerprint']['git_rev'][:12]:<12} "
        f"machine {entry['machine']}"
    )


def _cmd_append(args: argparse.Namespace) -> int:
    report = json.loads(args.report.read_text())
    if not isinstance(report, dict) or not (
        {"fingerprint", "workloads"} <= report.keys()
    ):
        print(f"{args.report} is not a spine report", file=sys.stderr)
        return 2
    entry = make_entry(report, args.note)
    args.ledger.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    with args.ledger.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    print(
        f"appended {args.report} to {args.ledger}: "
        f"{len(entry['workloads'])} workload(s), {_label(entry)}"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    entries = read_entries(args.ledger)
    if not entries:
        print(f"ledger {args.ledger} is empty; nothing to check")
        return 0
    newest = entries[-1]
    base = comparison_base(entries)
    if base is None:
        print(
            f"no earlier entry from machine {newest['machine']}; "
            "nothing to compare"
        )
        return 0
    print(f"A: {_label(base)}")
    print(f"B: {_label(newest)}")
    rows, ok = compare(base, newest)
    print("\n".join(rows))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _metric_of(entry: dict[str, Any], metric: str) -> Optional[dict[str, Any]]:
    workload, _, name = metric.partition("/")
    measured = entry["workloads"].get(workload, {})
    for layer in ("end_to_end", "per_layer"):
        if name in measured.get(layer, {}):
            return measured[layer][name]
    return None


def _cmd_show(args: argparse.Namespace) -> int:
    for entry in read_entries(args.ledger):
        line = _label(entry)
        if args.metric:
            found = _metric_of(entry, args.metric)
            if found is None:
                continue
            line += f"  {found['value']:.6g} {found['unit']}"
            if "min" in found:
                line += f" (min {found['min']:.6g}, max {found['max']:.6g})"
        else:
            line += f"  {len(entry['workloads'])} workload(s)"
        if entry.get("note"):
            line += f"  # {entry['note']}"
        print(line)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Perf ledger of measurement-spine reports."
    )
    parser.add_argument(
        "--ledger", type=Path, default=_DEFAULT_LEDGER,
        help=f"ledger JSONL path (default: {_DEFAULT_LEDGER})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_append = sub.add_parser(
        "append", help="record one `python -m benchmarks.spine --out` report"
    )
    p_append.add_argument("report", type=Path, help="the report JSON")
    p_append.add_argument(
        "--note", default="", help="free-form annotation for the entry"
    )
    p_append.set_defaults(fn=_cmd_append)

    p_check = sub.add_parser(
        "check",
        help="spine compare: newest entry vs the previous same-machine one",
    )
    p_check.set_defaults(fn=_cmd_check)

    p_show = sub.add_parser("show", help="print the ledger trajectory")
    p_show.add_argument(
        "--metric", default=None, metavar="WORKLOAD/METRIC",
        help="print one metric's trajectory, e.g. churn/work_per_s",
    )
    p_show.set_defaults(fn=_cmd_show)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
