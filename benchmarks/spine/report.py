"""All eight workloads as one report, and the comparison of two reports.

``run_all`` runs every workload twice in child processes, one at a time
(the box has two cores and only ``cluster2`` uses the second): a
measured run for the end-to-end metrics and a traced run for the
per-layer ones.  ``compare`` holds two such reports against the bounds
declared in :mod:`benchmarks.spine.spec`.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

from benchmarks.spine import ROOT
from benchmarks.spine.spec import (
    END_TO_END,
    EXACT_NAMES,
    WORKLOADS,
)

_RUN = Path(__file__).with_name("run.py")


def _child(workload: str, seed: int, seconds: float, trace: int):
    """One single-workload run -> (contract result, detail)."""
    done = subprocess.run(
        [
            sys.executable, str(_RUN),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} (trace {trace}) exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )
    lines = done.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("spine-detail "))
    return json.loads(lines[-1]), detail


def _git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _workload_entry(measured, traced) -> dict[str, Any]:
    (m_result, m_detail), (t_result, t_detail) = measured, traced
    problems = m_detail["problems"] + t_detail["problems"]
    if m_detail["digest"] != t_detail["digest"]:
        problems.append(
            f"measured and traced runs disagree: {m_detail['digest'][:12]} "
            f"vs {t_detail['digest'][:12]}"
        )
    end_to_end = dict(m_result["metrics"])
    end_to_end["work_per_s"] = dict(
        end_to_end["work_per_s"],
        min=m_detail["work_per_s_min"],
        max=m_detail["work_per_s_max"],
    )
    setups = [m_detail["import_s"] + s for s in m_detail["setup_samples_s"]]
    end_to_end["setup_s"] = dict(
        end_to_end["setup_s"], min=min(setups), max=max(setups)
    )
    return {
        "correct": (
            m_result["correct"] and t_result["correct"] and not problems
        ),
        "ops_attempted": m_result["attempted"],
        "ops_failed": m_result["failed"] + t_result["failed"],
        "reps": m_detail["reps"],
        "load_factor": m_detail["load_factor"],
        "steps_per_s": m_detail["steps_per_s"],
        "digest": m_detail["digest"],
        "end_to_end": end_to_end,
        "per_layer": t_result["metrics"],
        "problems": problems,
    }


def run_all(seed: int, seconds: float, out: Optional[str]) -> int:
    report = {
        "fingerprint": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "git_rev": _git_rev(),
            "seed": seed,
            "seconds": seconds,
        },
        "workloads": {},
    }
    for workload in WORKLOADS:
        print(f"spine: {workload.name} ...", file=sys.stderr, flush=True)
        entry = _workload_entry(
            _child(workload.name, seed, seconds, 0),
            _child(workload.name, seed, seconds, 1),
        )
        report["workloads"][workload.name] = entry
        print(_render_workload(workload, entry), file=sys.stderr, flush=True)
    text = json.dumps(report, indent=1, sort_keys=True)
    if out:
        Path(out).write_text(text + "\n")
    print(text)
    bad = [n for n, e in report["workloads"].items() if not e["correct"]]
    if bad:
        print(f"spine: FAILED checks on {', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


def _render_workload(workload, entry) -> str:
    e2e = entry["end_to_end"]
    rate = e2e["work_per_s"]
    lines = [
        f"  {workload.name}: {rate['value']:.4g} {workload.work_unit}/s "
        f"(min {rate['min']:.4g}, max {rate['max']:.4g}, "
        f"{entry['reps']} reps)"
        + (
            f", {entry['steps_per_s']:.4g} steps/s"
            if entry["steps_per_s"] else ""
        ),
        f"    setup_s {e2e['setup_s']['value']:.3f}  peak_rss_mb "
        f"{e2e['peak_rss_mb']['value']:.1f}  kept_frac "
        f"{e2e['kept_frac']['value']:.6f}  ops "
        f"{entry['ops_attempted']} attempted / {entry['ops_failed']} failed "
        f"({workload.op_unit})",
    ]
    for name, metric in entry["per_layer"].items():
        if metric["value"]:
            lines.append(
                f"    {name:34s} {metric['value']:.6g} {metric['unit']}"
            )
    for problem in entry["problems"]:
        lines.append(f"    PROBLEM: {problem}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _worse_by(metric, a: float, b: float) -> float:
    """Share of ``a`` by which ``b`` is worse (negative: better)."""
    change = (b - a) / abs(a) if a else 0.0
    return -change if metric.better == "higher" else change


def _spread(entry: dict) -> float:
    if "min" not in entry or not entry["value"]:
        return 0.0
    return (entry["max"] - entry["min"]) / abs(entry["value"])


def _separated(metric, a: dict, b: dict) -> bool:
    """Every rep of ``b`` reads better than every rep of ``a``."""
    a_lo, a_hi = a.get("min", a["value"]), a.get("max", a["value"])
    b_lo, b_hi = b.get("min", b["value"]), b.get("max", b["value"])
    return b_lo > a_hi if metric.better == "higher" else b_hi < a_lo


def judge(metric, a: dict, b: dict) -> str:
    """Verdict on one bounded metric: ``b`` (the change) against ``a``."""
    worse = _worse_by(metric, a["value"], b["value"])
    if worse > metric.bound:
        return "regressed"
    if max(_spread(a), _spread(b)) > metric.bound:
        # Too noisy to call unchanged, unless b wins every rep.
        return "improved" if _separated(metric, a, b) else "unresolved"
    return "improved" if -worse > metric.bound else "unchanged"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Rows of the comparison and whether ``b`` passes against ``a``."""
    rows, ok = [], True
    for workload in WORKLOADS:
        name = workload.name
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            rows.append(f"{name}: missing from one report")
            ok = False
            continue
        for label, entry in (("A", wa), ("B", wb)):
            if not entry["correct"]:
                rows.append(f"{name}: report {label} failed its checks")
                ok = False
        for metric in END_TO_END:
            ea, eb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            verdict = judge(metric, ea, eb)
            ok = ok and verdict != "regressed"
            rows.append(
                f"{name:11s} {metric.name:12s} {ea['value']:14.6g} "
                f"{eb['value']:14.6g} {-_worse_by(metric, ea['value'], eb['value']):+8.2%} "
                f"(bound {metric.bound:.0%}) {verdict}"
            )
        for metric_name in EXACT_NAMES:
            va = wa["per_layer"][metric_name]["value"]
            vb = wb["per_layer"][metric_name]["value"]
            if va or vb:
                verdict = "equal" if va == vb else "DIFFERS"
                ok = ok and va == vb
                rows.append(
                    f"{name:11s} {metric_name:22s} {va!r} {vb!r} {verdict}"
                )
    return rows, ok


def compare_main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    for label, report in (("A", a), ("B", b)):
        print(f"{label}: {json.dumps(report['fingerprint'], sort_keys=True)}")
    if a["fingerprint"]["seed"] != b["fingerprint"]["seed"]:
        print("note: different seeds; exact metrics cannot be equal")
    print(
        f"{'workload':11s} {'metric':12s} {'A':>14s} {'B':>14s} "
        f"{'B vs A':>8s} (+ is better)"
    )
    rows, ok = compare(a, b)
    print("\n".join(rows))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1

