"""The cluster master: spawns shards, supervises them, merges.

:class:`ClusterMaster` owns a fleet of worker processes (one per shard
that owns at least one tenant partition) and runs jobs against them: it
hands each worker its partition list, collects per-partition report
payloads, and performs the canonical merge.  Partitions share no
instant, so nothing paces the workers.  Supervision mirrors the
experiment executor's semantics: every frame is a heartbeat, a silent
or dead shard is killed and respawned from its partition checkpoints
(bounded respawn budget), and a code-fingerprint mismatch in the
handshake aborts the run before any mixed-version bytes can be
computed.

Workers survive across jobs: the spine's ``cluster2`` pays the spawn
cost once, then runs a warm-up job and the timed jobs on one fleet.
"""

from __future__ import annotations

import math
import os
import queue
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Optional

import repro
from repro.checkpoint.policy import CheckpointConfig
from repro.cluster import protocol
from repro.cluster.partition import partition_map
from repro.cluster.report import ClusterReport, cluster_report_from_payloads
from repro.errors import ClusterError, ConfigurationError
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category
from repro.runner.fingerprint import code_fingerprint
from repro.workload.scenarios import (
    STEP_DT,
    make_scenario,
    partition_ids,
)

_QUEUE_POLL_S = 0.2
_STDERR_TAIL_BYTES = 4096


@dataclass
class _Shard:
    """One shard's process and the payloads of its current job."""

    shard: int
    partitions: list[str]
    proc: Optional[subprocess.Popen] = None
    incarnation: int = 0
    stderr_path: Optional[Path] = None
    assign: Optional[dict[str, Any]] = None
    payloads: Optional[dict[str, Any]] = None
    last_heard: float = field(default_factory=time.monotonic)
    respawns: int = 0

    @property
    def stdin(self) -> BinaryIO:
        assert self.proc is not None and self.proc.stdin is not None
        return self.proc.stdin

    def stderr_tail(self) -> str:
        if self.stderr_path is None or not self.stderr_path.exists():
            return ""
        data = self.stderr_path.read_bytes()[-_STDERR_TAIL_BYTES:]
        return data.decode("utf-8", errors="replace")


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
        Hash-space size for tenant placement.  Only shards owning at
        least one partition get a worker process.
    epoch_s:
        Virtual seconds between a partition's snapshots (and
        heartbeats).
    checkpoint_root:
        Directory for per-partition snapshot slots.  Required for crash
        supervision — without it a dead shard is unrecoverable and the
        run fails.  Defaults to a private temp directory (so respawn
        always works); pass an explicit path to make runs resumable
        across master restarts.
    hang_timeout:
        Wall seconds of shard silence before it is presumed hung,
        killed, and respawned; positive.
    max_respawns:
        Respawn budget *per shard per job*; zero makes the first
        death fatal.
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
        # (None = Figure-8); forwarded verbatim in each assignment so
        # all shards realize the same topology.
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
        self._fleet: dict[int, _Shard] = {
            shard: _Shard(shard=shard, partitions=owned)
            for shard, owned in partition_map(partition_ids(), shards).items()
        }
        self.shard_map = {
            partition: state.shard
            for state in self._fleet.values()
            for partition in state.partitions
        }
        self._queue: "queue.Queue[tuple[int, int, Optional[dict]]]" = (
            queue.Queue()
        )
        self._job = 0
        self._closing = False

    # ------------------------------------------------------------------
    # process lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, state: _Shard) -> None:
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else src_root + os.pathsep + existing
        )
        state.incarnation += 1
        state.stderr_path = (
            self.checkpoint_root / f"shard-{state.shard}.stderr.log"
        )
        stderr_file = open(state.stderr_path, "ab")
        try:
            state.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cluster.worker",
                    "--shard",
                    str(state.shard),
                ],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr_file,
                env=env,
            )
        finally:
            stderr_file.close()
        hello = protocol.read_frame(state.proc.stdout)
        if hello is None:
            raise ClusterError(
                f"shard {state.shard} died during handshake; "
                f"stderr: {state.stderr_tail()}"
            )
        hello = protocol.expect(hello, "hello")
        if hello["protocol"] != protocol.PROTOCOL_VERSION:
            raise ClusterError(
                f"shard {state.shard} speaks protocol "
                f"{hello['protocol']}, master speaks "
                f"{protocol.PROTOCOL_VERSION}"
            )
        if hello["fingerprint"] != self.fingerprint:
            self._kill(state)
            raise ClusterError(
                f"shard {state.shard} runs different code "
                f"(fingerprint {hello['fingerprint'][:12]}.. vs "
                f"{self.fingerprint[:12]}..); refusing to mix versions"
            )
        protocol.write_frame(state.stdin, protocol.welcome())
        state.last_heard = time.monotonic()
        threading.Thread(
            target=self._read_loop,
            args=(state.shard, state.incarnation, state.proc.stdout),
            daemon=True,
        ).start()

    def _read_loop(
        self, shard: int, incarnation: int, stream: BinaryIO
    ) -> None:
        try:
            while True:
                message = protocol.read_frame(stream)
                self._queue.put((shard, incarnation, message))
                if message is None:
                    return
        except Exception as exc:  # noqa: BLE001 — surfaced on the queue
            self._queue.put(
                (shard, incarnation, protocol.error(str(exc)))
            )
            self._queue.put((shard, incarnation, None))

    def _kill(self, state: _Shard) -> None:
        proc = state.proc
        if proc is None:
            return
        for stop in (proc.terminate, proc.kill):
            if proc.poll() is not None:
                break
            stop()
            try:
                proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                continue
        if proc.stdin is not None:
            try:
                proc.stdin.close()
            except OSError:
                pass
        state.proc = None

    def _fail(self, message: str) -> None:
        """Abort the run: kill the whole fleet, raise with context."""
        for state in self._fleet.values():
            self._kill(state)
        raise ClusterError(message)

    # ------------------------------------------------------------------
    # one job
    # ------------------------------------------------------------------
    def run(
        self,
        rate_scale: float = 1.0,
        duration: Optional[float] = None,
        resume: bool = False,
        kill_at_epoch: Optional[dict[int, int]] = None,
    ) -> ClusterReport:
        """Run one sharded job and return the merged report.

        ``kill_at_epoch`` maps shard id to ``e``: that shard SIGKILLs
        itself once it has simulated ``(e + 1) * epoch_s`` virtual
        seconds, counted over its partitions in order (supervision
        tests).  The kill fires once per job; a respawn does not
        repeat it.
        """
        if self._closing:
            raise ClusterError("master is closed")
        job = self._job
        self._job += 1
        scenario = make_scenario(
            self.scenario,
            rate_scale=rate_scale,
            duration=duration,
            topology=self.topology,
        )
        t0 = time.perf_counter()
        for state in self._fleet.values():
            state.payloads = None
            state.respawns = 0
            if state.proc is None or state.proc.poll() is not None:
                self._spawn(state)
                self._emit(
                    "shard_spawn",
                    0.0,
                    shard=state.shard,
                    pid=state.proc.pid,
                    partitions=state.partitions,
                )
            state.assign = protocol.assign(
                job=job,
                scenario=self.scenario,
                seed=self.seed,
                partitions=state.partitions,
                rate_scale=rate_scale,
                duration=scenario.duration,
                max_sessions=self.max_sessions,
                epoch_s=self.epoch_s,
                checkpoint_root=str(self.checkpoint_root),
                resume=resume,
                kill_at_epoch=(kill_at_epoch or {}).get(state.shard),
                topology=self.topology,
            )
            protocol.write_frame(state.stdin, state.assign)
            state.last_heard = time.monotonic()

        self._drive()

        payloads = {
            partition: payload
            for state in self._fleet.values()
            for partition, payload in state.payloads.items()
        }
        steps = round(scenario.duration / STEP_DT)
        report = cluster_report_from_payloads(
            payloads,
            shards=self.shards,
            shard_map=self.shard_map,
            telemetry={
                # Snapshot intervals per partition.
                "epochs": math.ceil(
                    steps / self._cadence.every_steps(STEP_DT)
                ),
                "epoch_s": self.epoch_s,
                "workers": len(self._fleet),
                "respawns": sum(s.respawns for s in self._fleet.values()),
                "wall_s": round(time.perf_counter() - t0, 3),
            },
        )
        self._emit(
            "merge",
            scenario.duration,
            checksum=report.checksum(),
            partitions=list(report.partitions),
            shards=self.shards,
        )
        return report

    def _drive(self) -> None:
        """Collect every shard's report; respawn the dead and silent."""
        fleet = self._fleet
        while any(s.payloads is None for s in fleet.values()):
            now = time.monotonic()
            for state in fleet.values():
                if (
                    state.payloads is None
                    and now - state.last_heard > self.hang_timeout
                ):
                    self._respawn(
                        state, why=f"silent for {self.hang_timeout:g}s"
                    )
            try:
                shard, incarnation, message = self._queue.get(
                    timeout=_QUEUE_POLL_S
                )
            except queue.Empty:
                continue
            state = fleet[shard]
            if incarnation != state.incarnation:
                continue  # stale frame from a killed incarnation
            state.last_heard = time.monotonic()
            if message is None:
                if state.payloads is None:
                    self._respawn(state, why="exited unexpectedly")
                continue
            kind = message.get("type")
            if kind == "report":
                state.payloads = dict(message["payloads"])
            elif kind == "error":
                self._fail(
                    f"shard {shard} failed: {message.get('message')}; "
                    f"stderr: {state.stderr_tail()}"
                )
            elif kind != "progress":
                self._fail(
                    f"shard {shard} sent unexpected {kind!r} frame"
                )

    def _respawn(self, state: _Shard, why: str) -> None:
        if state.respawns >= self.max_respawns:
            self._fail(
                f"shard {state.shard} {why} and exhausted its respawn "
                f"budget ({self.max_respawns}); "
                f"stderr: {state.stderr_tail()}"
            )
        self._emit(
            "shard_exit",
            0.0,
            shard=state.shard,
            reason=why,
            respawns=state.respawns,
        )
        self._kill(state)
        state.respawns += 1
        self._spawn(state)
        self._emit(
            "shard_respawn",
            0.0,
            shard=state.shard,
            pid=state.proc.pid,
            attempt=state.respawns,
        )
        # The same assignment, resumed from the partition checkpoints.
        protocol.write_frame(state.stdin, {**state.assign, "resume": True})

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the fleet down cleanly; idempotent."""
        if self._closing:
            return
        self._closing = True
        for state in self._fleet.values():
            proc = state.proc
            if proc is None or proc.poll() is not None:
                continue
            try:
                protocol.write_frame(state.stdin, protocol.shutdown())
            except (OSError, ValueError):
                pass
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
            self._kill(state)
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "ClusterMaster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _emit(self, name: str, sim_time: float, **fields) -> None:
        if self.obs.enabled:
            self.obs.trace.emit(
                sim_time, Category.CLUSTER, name, **fields
            )

