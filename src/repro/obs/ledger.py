"""Append-only performance ledger with noise-aware regression checks.

The ``benchmarks/results/BENCH_*.json`` files each hold one baseline and
one latest measurement — a snapshot, not a trajectory.  The ledger turns
them into one: every ``tools/perf_ledger.py append`` harvests the
headline metric of each benchmark into a single JSONL entry stamped with
enough identity to make entries comparable later —

* a **machine fingerprint** (platform, architecture, Python, core
  count), because wall-clock numbers only compare within a machine;
* the **git revision** and the runner's **code fingerprint**, so a
  regression points at the change that introduced it;
* a real timestamp (the ledger is telemetry *about* runs, so it sits
  deliberately outside the determinism contract that keeps wall-clock
  out of report checksums).

``check`` compares the newest entry against a trailing window of prior
entries from the same machine, per metric, with direction-aware
semantics (``sessions_per_sec`` regresses down, ``guard_ns`` regresses
up).  The budget reuses the gate pattern from bench_obs_overhead.py:
a fixed relative threshold, widened to twice the history's own observed
spread when the machine is noisier than the threshold — a true gate on
quiet machines, a gross-regression check on noisy ones.  With fewer
than :data:`MIN_HISTORY` prior entries every metric passes trivially,
so a freshly started ledger (or the CI throwaway) self-checks green.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Optional

LEDGER_SCHEMA = 1

#: Default ledger location, relative to the repo root.
DEFAULT_LEDGER = Path("benchmarks/results/LEDGER.jsonl")

#: Relative regression budget before noise widening (the same 3 %
#: stance as bench_obs_overhead.py's wall-clock trend gate).
DEFAULT_THRESHOLD = 0.03

#: Trailing entries (same machine) the candidate compares against.
DEFAULT_WINDOW = 5

#: Prior same-machine entries required before a metric gates at all.
MIN_HISTORY = 1

#: Headline metrics harvested from each BENCH_*.json, as
#: ``metric key -> (file, path inside the JSON, direction)``.
#: Direction says which way is *better*; anything not listed here rides
#: along in the entry but never gates.
HEADLINE_METRICS: dict[str, tuple[str, tuple[str, ...], str]] = {
    "cdf.incremental_us_per_cycle": (
        "BENCH_cdf.json", ("latest", "incremental_us_per_cycle"), "lower",
    ),
    "cdf.speedup": ("BENCH_cdf.json", ("latest", "speedup"), "higher"),
    "obs.norm_disabled": (
        "BENCH_obs.json", ("latest", "norm_disabled"), "lower",
    ),
    "obs.overhead_enabled": (
        "BENCH_obs.json", ("latest", "overhead_enabled"), "lower",
    ),
    "obs.guard_ns": ("BENCH_obs.json", ("latest", "guard_ns"), "lower"),
    "runner.speedup": (
        "BENCH_runner.json", ("latest", "speedup"), "higher",
    ),
    "checkpoint.mean_save_ms": (
        "BENCH_checkpoint.json", ("snapshot", "latest", "mean_save_ms"),
        "lower",
    ),
    "checkpoint.wall_s": (
        "BENCH_checkpoint.json",
        ("overhead", "latest", "checkpointed_wall_s"), "lower",
    ),
    "scale.sessions_per_sec": (
        "BENCH_scale.json", ("churn", "latest", "sessions_per_sec"),
        "higher",
    ),
    "scale.steps_per_sec": (
        "BENCH_scale.json", ("churn", "latest", "steps_per_sec"), "higher",
    ),
    "scale.concurrent_steps_per_sec": (
        "BENCH_scale.json", ("concurrent", "latest", "steps_per_sec"),
        "higher",
    ),
    "cluster.speedup_4": (
        "BENCH_cluster.json", ("scaleout", "latest", "speedup_4"),
        "higher",
    ),
    "cluster.sessions_per_sec_4": (
        "BENCH_cluster.json",
        ("scaleout", "latest", "sessions_per_sec_4"), "higher",
    ),
    "topo.envelope_sessions_per_sec.fat_tree": (
        "BENCH_topo.json",
        ("fat_tree_k4", "latest", "envelope_sessions_per_sec"), "higher",
    ),
    "topo.envelope_sessions_per_sec.leaf_spine": (
        "BENCH_topo.json",
        ("leaf_spine_4x8", "latest", "envelope_sessions_per_sec"),
        "higher",
    ),
}


def machine_fingerprint() -> dict[str, Any]:
    """Identity of the measuring machine; ``id`` keys comparisons."""
    info = {
        "platform": platform.system(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 0,
    }
    canonical = json.dumps(info, sort_keys=True, separators=(",", ":"))
    info["id"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]
    return info


def git_revision(cwd: Optional[Path] = None) -> Optional[str]:
    """The current HEAD commit, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def _dig(data: Any, path: tuple[str, ...]) -> Optional[float]:
    for key in path:
        if not isinstance(data, dict) or key not in data:
            return None
        data = data[key]
    return float(data) if isinstance(data, (int, float)) else None


def collect_headline_metrics(results_dir: Path) -> dict[str, float]:
    """Harvest every registered headline metric present on disk."""
    metrics: dict[str, float] = {}
    cache: dict[str, Optional[dict]] = {}
    for metric, (filename, path, _direction) in HEADLINE_METRICS.items():
        if filename not in cache:
            file_path = Path(results_dir) / filename
            if file_path.exists():
                cache[filename] = json.loads(
                    file_path.read_text(encoding="utf-8")
                )
            else:
                cache[filename] = None
        data = cache[filename]
        if data is None:
            continue
        value = _dig(data, path)
        if value is not None:
            metrics[metric] = value
    return metrics


def make_entry(
    results_dir: Path,
    note: str = "",
    repo_root: Optional[Path] = None,
) -> dict[str, Any]:
    """One ready-to-append ledger entry from the current results dir."""
    entry: dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": machine_fingerprint(),
        "git_rev": git_revision(repo_root),
        "metrics": collect_headline_metrics(Path(results_dir)),
    }
    if note:
        entry["note"] = note
    try:
        from repro.runner.fingerprint import code_fingerprint

        entry["code_fingerprint"] = code_fingerprint()
    except Exception:
        entry["code_fingerprint"] = None
    return entry


@dataclass
class RegressionFinding:
    """Verdict for one metric of the candidate entry."""

    metric: str
    direction: str
    value: float
    baseline: Optional[float] = None
    history: list[float] = field(default_factory=list)
    change: Optional[float] = None  # positive = worse, direction-aware
    budget: Optional[float] = None
    regressed: bool = False

    def render(self) -> str:
        if self.baseline is None:
            return (
                f"  {self.metric:<32} {self.value:>12.3f}  "
                f"(no baseline yet)"
            )
        mark = "REGRESSED" if self.regressed else "ok"
        return (
            f"  {self.metric:<32} {self.value:>12.3f}  vs "
            f"{self.baseline:.3f} ({self.change:+.1%}, "
            f"budget {self.budget:.1%})  {mark}"
        )


def _spread(values: list[float]) -> float:
    """Relative max-min spread; 0.0 when only one sample exists."""
    lo, hi = min(values), max(values)
    return (hi - lo) / lo if len(values) > 1 and lo > 0 else 0.0


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


class PerfLedger:
    """The append-only JSONL trajectory of benchmark headline metrics."""

    def __init__(self, path: Path | str = DEFAULT_LEDGER):
        self.path = Path(path)

    def append(self, entry: dict[str, Any]) -> dict[str, Any]:
        """Append one entry (a plain ``json.dumps``-able dict)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return entry

    def entries(self) -> list[dict[str, Any]]:
        if not self.path.exists():
            return []
        out = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line:
                out.append(json.loads(line))
        return out

    # ------------------------------------------------------------------
    # regression check
    # ------------------------------------------------------------------
    def check(
        self,
        window: int = DEFAULT_WINDOW,
        threshold: float = DEFAULT_THRESHOLD,
    ) -> list[RegressionFinding]:
        """Judge the newest entry against its trailing same-machine window.

        Returns one finding per gated metric of the newest entry; the
        run regresses iff any finding has ``regressed=True``.  An empty
        ledger (or one whose newest entry has no gated metrics) returns
        an empty list — vacuously green.
        """
        entries = self.entries()
        if not entries:
            return []
        candidate = entries[-1]
        machine_id = (candidate.get("machine") or {}).get("id")
        prior = [
            e for e in entries[:-1]
            if (e.get("machine") or {}).get("id") == machine_id
        ]
        findings: list[RegressionFinding] = []
        for metric, value in sorted(
            (candidate.get("metrics") or {}).items()
        ):
            spec = HEADLINE_METRICS.get(metric)
            if spec is None:
                continue  # informational ride-along, never gated
            direction = spec[2]
            history = [
                e["metrics"][metric]
                for e in prior[-window:]
                if metric in (e.get("metrics") or {})
            ]
            finding = RegressionFinding(
                metric=metric,
                direction=direction,
                value=float(value),
                history=history,
            )
            gateable = (
                len(history) >= MIN_HISTORY
                and min(history) > 0
                and value > 0
            )
            if gateable:
                baseline = _median(history)
                if direction == "lower":
                    change = value / baseline - 1.0
                else:
                    change = baseline / value - 1.0
                budget = max(threshold, 2.0 * _spread(history))
                finding.baseline = baseline
                finding.change = change
                finding.budget = budget
                finding.regressed = change > budget
            findings.append(finding)
        return findings

    @staticmethod
    def render(findings: list[RegressionFinding]) -> str:
        if not findings:
            return "ledger check: no gated metrics (vacuously ok)"
        lines = [f.render() for f in findings]
        n_bad = sum(f.regressed for f in findings)
        verdict = (
            f"ledger check: {n_bad} regression(s) in "
            f"{len(findings)} gated metric(s)"
            if n_bad
            else f"ledger check: ok ({len(findings)} gated metric(s))"
        )
        return "\n".join([verdict, *lines])
