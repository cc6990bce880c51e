"""Kill-injection harness: prove crash-safety by actually crashing.

The determinism contract of :mod:`repro.checkpoint` — a run SIGKILLed
at arbitrary points and resumed from its last checkpoint produces
byte-identical results — is only worth anything if it is *tested* with
real SIGKILLs, not cooperative exceptions.  This module provides the
two halves:

:class:`KillSwitch`
    Runs *inside* a worker.  Armed with a list of virtual-time kill
    points, it SIGKILLs its own process the first time the simulation
    clock reaches each point.  A plain marker file (``kills.json``,
    atomically replaced, deliberately outside the digest-verified
    checkpoint) counts kills already delivered, so each point fires
    exactly once across restarts and the run always makes progress.

:func:`run_crash_test`
    Runs in the orchestrator.  Computes the uninterrupted golden
    report, then drives the same spec through the supervised executor
    with the kill switch armed, and asserts the survivor's payload is
    byte-identical to the golden's.

Kill points are seeded (:func:`seeded_kill_points`): derived from the
spec seed so a failing crash test reproduces exactly.
"""

from __future__ import annotations

import json
import os
import signal
from pathlib import Path
from typing import Any, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.fsutil import atomic_write_text
from repro.runner.spec import mix_seed


def seeded_kill_points(
    duration: float, n: int, seed: int, label: str = "crash-test"
) -> list[float]:
    """``n`` deterministic kill times inside ``(10%, 90%)`` of the run.

    Drawn from a seed-derived substream and sorted; two harness runs
    with the same arguments kill at the same virtual instants.
    """
    if n < 1:
        raise ConfigurationError(f"need at least one kill point, got {n}")
    if duration <= 0:
        raise ConfigurationError(
            f"duration must be positive, got {duration}"
        )
    rng = np.random.default_rng(mix_seed(seed, "kill-points", label))
    points = rng.uniform(0.1 * duration, 0.9 * duration, size=n)
    return sorted(round(float(t), 3) for t in points)


class KillSwitch:
    """Self-SIGKILL at planned virtual times, exactly once per point.

    The kills-delivered counter lives in ``kills.json`` next to the
    checkpoint.  It is written *before* the kill (atomic replace, so
    the count survives the SIGKILL) and is intentionally not part of
    the digest-verified snapshot: it records harness progress, not
    simulation state, and advancing it must not move the resume point.
    """

    MARKER = "kills.json"

    def __init__(
        self,
        root: Union[str, Path],
        kill_points: Sequence[float],
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.kill_points = sorted(float(t) for t in kill_points)

    @property
    def marker_path(self) -> Path:
        return self.root / self.MARKER

    @property
    def kills_done(self) -> int:
        """Kill points already delivered (0 when the marker is absent)."""
        try:
            data = json.loads(self.marker_path.read_text())
            return int(data["kills"])
        except (OSError, ValueError, KeyError, TypeError):
            return 0

    def maybe_kill(self, t: float) -> None:
        """SIGKILL this process if virtual time reached the next point."""
        done = self.kills_done
        if done >= len(self.kill_points):
            return
        if t < self.kill_points[done]:
            return
        # Count first, kill second: if the count is durable the next
        # attempt skips this point, so progress is monotone even when a
        # kill lands before the next periodic checkpoint.
        atomic_write_text(
            self.marker_path, json.dumps({"kills": done + 1})
        )
        os.kill(os.getpid(), signal.SIGKILL)


def run_crash_test(
    scenario: str = "baseline",
    seed: int = 0,
    kills: int = 3,
    duration: float = 20.0,
    max_sessions: Optional[int] = 150,
    checkpoint_every: float = 2.0,
    workers: int = 1,
    rate_scale: float = 1.0,
    work_dir: Optional[Union[str, Path]] = None,
    manifest_path: Optional[Union[str, Path]] = None,
) -> dict[str, Any]:
    """Golden-vs-survivor crash test through the supervised executor.

    1. Run the workload spec uninterrupted (inline) — the golden.
    2. Run the identical simulation through :func:`run_specs` with a
       checkpoint root and ``kills`` seeded SIGKILL points armed; the
       supervisor restarts the worker after each kill and every restart
       resumes from the last verified checkpoint.
    3. Compare payloads byte for byte.

    Returns a summary dict (``identical``, ``passed``, checksums,
    attempts, kill points); raises nothing on failure — callers check
    ``passed`` so the CLI can exit nonzero with the full summary
    printed.  ``passed`` also demands ``attempts == kills + 1``: a
    survivor that was never killed proves nothing about resume.
    """
    import tempfile

    from repro.runner.executor import run_specs
    from repro.runner.spec import RunSpec
    from repro.runner.tasks import execute_spec

    kill_points = seeded_kill_points(duration, kills, seed)

    def make_spec(with_kills: bool) -> RunSpec:
        params: dict[str, Any] = {
            "scenario": scenario,
            "rate_scale": rate_scale,
            "duration": duration,
            "max_sessions": max_sessions,
            "checkpoint_every": checkpoint_every,
        }
        if with_kills:
            params["kill_points"] = kill_points
        return RunSpec(
            kind="workload",
            name=f"crash-{scenario}" if with_kills else f"gold-{scenario}",
            params=params,
            seed=seed,
        )

    golden_payload = execute_spec(make_spec(with_kills=False))

    cleanup = None
    if work_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-crash-")
        work_dir = cleanup.name
    try:
        report = run_specs(
            [make_spec(with_kills=True)],
            workers=workers,
            retries=kills + 1,
            checkpoint_root=os.path.join(str(work_dir), "ckpt"),
            retry_backoff_s=0.01,
            manifest_path=(
                str(manifest_path) if manifest_path is not None else None
            ),
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    outcome = report.outcomes[0]
    survivor_payload = outcome.payload
    identical = (
        outcome.status == "ok"
        and survivor_payload is not None
        and json.dumps(survivor_payload, sort_keys=True)
        == json.dumps(golden_payload, sort_keys=True)
    )
    return {
        "identical": identical,
        "passed": identical and outcome.attempts == kills + 1,
        "scenario": scenario,
        "seed": seed,
        "workers": workers,
        "kill_points": kill_points,
        "status": outcome.status,
        "attempts": outcome.attempts,
        "error": outcome.error,
        "golden_checksum": golden_payload["checksum"],
        "survivor_checksum": (
            survivor_payload.get("checksum")
            if survivor_payload is not None
            else None
        ),
    }
