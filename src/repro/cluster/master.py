"""The cluster master: one runner fan-out over the partitions, merged.

:class:`ClusterMaster` turns a sharded job into one
:func:`~repro.runner.executor.run_specs` call: one ``workload`` spec
per tenant partition, at most ``shards`` of them in flight.  The
runner's executor is the supervisor — heartbeats, the hung-vs-slow
watchdog, SIGTERM→SIGKILL escalation and seeded retry — and every
attempt of a partition resumes from its snapshot slot
``<checkpoint_root>/<spec hash>``.  Partitions share no instant, so
nothing paces them against each other; the master only merges.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.checkpoint.policy import CheckpointConfig
from repro.cluster.report import ClusterReport, cluster_report_from_payloads
from repro.errors import ClusterError, ConfigurationError
from repro.obs.context import NULL_OBS, Observability
from repro.runner.executor import run_specs
from repro.runner.fingerprint import code_fingerprint
from repro.runner.spec import RunSpec
from repro.workload.scenarios import STEP_DT, make_scenario, partition_ids


class ClusterMaster:
    """Master for sharded scenario runs; reusable across jobs.

    Parameters
    ----------
    scenario:
        Named scenario every job of this master runs.
    seed:
        Top-level seed; results are pure functions of it (never of
        ``shards``).
    shards:
        Most partitions simulated at once, each in its own process.
    epoch_s:
        Virtual seconds between a partition's snapshots.
    checkpoint_root:
        Directory for per-partition snapshot slots.  Defaults to a
        private temp directory (so a retried partition always resumes);
        pass an explicit path to keep the slots of a failed job for the
        next one.
    hang_timeout:
        Wall seconds without a heartbeat before a partition's process
        is presumed hung, killed, and retried; positive.
    max_respawns:
        Retries *per partition per job* after a crash or hang; zero
        makes the first death fatal.
    """

    def __init__(
        self,
        scenario: str = "baseline",
        seed: int = 0,
        shards: int = 2,
        epoch_s: float = 2.0,
        max_sessions: Optional[int] = None,
        checkpoint_root: Optional[os.PathLike] = None,
        hang_timeout: float = 60.0,
        max_respawns: int = 2,
        obs: Optional[Observability] = None,
        topology: Optional[str] = None,
    ):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if hang_timeout <= 0:
            raise ConfigurationError(
                f"hang_timeout must be positive, got {hang_timeout}"
            )
        if max_respawns < 0:
            raise ConfigurationError(
                f"max_respawns must be >= 0, got {max_respawns}"
            )
        self.scenario = scenario
        self.seed = seed
        self.shards = shards
        self.epoch_s = epoch_s
        self._cadence = CheckpointConfig(every_s=epoch_s)
        self.max_sessions = max_sessions
        # Generated-topology reference every job of this master runs on
        # (None = Figure-8).
        self.topology = topology
        self.hang_timeout = hang_timeout
        self.max_respawns = max_respawns
        self.obs = obs if obs is not None else NULL_OBS
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if checkpoint_root is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
            checkpoint_root = self._tmp.name
        self.checkpoint_root = Path(checkpoint_root)
        self.checkpoint_root.mkdir(parents=True, exist_ok=True)
        self.fingerprint = code_fingerprint()
        self._closing = False

    def run(
        self,
        rate_scale: float = 1.0,
        duration: Optional[float] = None,
        kill_at: Sequence[float] = (),
    ) -> ClusterReport:
        """Run one sharded job and return the merged report.

        ``kill_at`` (virtual times; supervision tests) arms every
        partition's task to SIGKILL itself once at each point of its
        own clock.
        """
        if self._closing:
            raise ClusterError("master is closed")
        scenario = make_scenario(
            self.scenario,
            rate_scale=rate_scale,
            duration=duration,
            topology=self.topology,
        )
        params = {
            "scenario": self.scenario,
            "rate_scale": rate_scale,
            "duration": scenario.duration,
            "max_sessions": self.max_sessions,
            "topology": self.topology,
            "checkpoint_every": self.epoch_s,
        }
        if kill_at:
            params["kill_points"] = sorted(float(t) for t in kill_at)
        specs = [
            RunSpec(
                kind="workload",
                name=f"{self.scenario}-{partition}",
                params={**params, "partition": partition},
                seed=self.seed,
            )
            for partition in partition_ids()
        ]
        workers = min(self.shards, len(specs))
        t0 = time.perf_counter()
        result = run_specs(
            specs,
            workers=workers,
            fingerprint=self.fingerprint,
            timeout_s=None,
            retries=self.max_respawns,
            hang_timeout_s=self.hang_timeout,
            checkpoint_root=str(self.checkpoint_root),
            obs=self.obs,
        )
        for outcome in result.outcomes:
            if not outcome.ok:
                why = outcome.error
                if outcome.status != "failed":
                    why += (
                        f"; respawn budget ({self.max_respawns}) exhausted"
                    )
                if outcome.stderr_tail:
                    why += f"; stderr: {outcome.stderr_tail}"
                raise ClusterError(
                    f"partition {outcome.spec.params['partition']} "
                    f"{outcome.status}: {why}"
                )
        steps = round(scenario.duration / STEP_DT)
        return cluster_report_from_payloads(
            {
                outcome.spec.params["partition"]: outcome.payload["workload"]
                for outcome in result.outcomes
            },
            shards=self.shards,
            telemetry={
                # Snapshot intervals per partition.
                "epochs": math.ceil(
                    steps / self._cadence.every_steps(STEP_DT)
                ),
                "workers": workers,
                "respawns": sum(o.attempts - 1 for o in result.outcomes),
                "wall_s": round(time.perf_counter() - t0, 3),
            },
        )

    def close(self) -> None:
        """Release the private checkpoint root, if any; idempotent."""
        self._closing = True
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "ClusterMaster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
