"""The run orchestrator: parallel spec execution.

:func:`run_specs` takes a list of :class:`RunSpec` and drives them to
completion:

1. **Fan-out** — every spec runs in a single-use worker process
   (at most ``workers`` alive at once), each reporting its payload back
   over a pipe.  One process per spec keeps the failure domain minimal:
   a crash or timeout kills exactly that spec's worker, never a pool.
2. **Fault handling** — a worker that dies without reporting is a
   *crash* (captured with its exit code and a stderr tail); one that
   outlives ``timeout_s`` is terminated as a *timeout*; one that stops
   heartbeating for ``hang_timeout_s`` while the clock still runs is
   *hung* and goes through terminate→kill escalation (a wedged worker
   may ignore SIGTERM).  All three are retried up to ``retries`` extra
   attempts, spaced by a deterministic seeded exponential backoff.  A
   clean Python exception is deterministic and therefore **not**
   retried — it is reported as ``"failed"`` with the worker's
   traceback.
3. **Supervised resume** — with a ``checkpoint_root``, every attempt
   of a spec shares a per-spec checkpoint directory
   (``<root>/<content_hash>``); checkpoint-aware tasks (workload,
   envelope) snapshot there and a retried attempt resumes from the
   last verified snapshot instead of recomputing from scratch.
4. **Streaming** — progress flows through the ``repro.obs`` event bus
   (category ``runner``, virtual time = wall seconds since run start).

Determinism: tasks are pure functions of their spec (seeds are
spec-derived), so payloads — and the report bytes built from them — are
byte-identical regardless of worker count, completion order, crash
count, or whether a result came from a checkpoint resume.
Outcomes are returned in submission order.

``workers=0`` runs every spec inline in the calling process (no
isolation, timeouts ignored) — the debugging mode.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import TYPE_CHECKING, Any, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.policy import InterruptFlag

from repro.errors import ConfigurationError
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category
from repro.runner.cache import payload_digest
from repro.runner.spec import RunSpec
from repro.runner.tasks import TaskRuntime, execute_spec

#: Poll interval of the orchestration loop (seconds).
_POLL_S = 0.02

#: Minimum wall-clock spacing between heartbeat pipe messages.
_HB_THROTTLE_S = 0.2

#: Grace period after terminate() before escalating to kill().
_TERM_GRACE_S = 5.0

#: Base of the deterministic exponential retry backoff (seconds).
_RETRY_BACKOFF_S = 0.05

#: Characters of stderr preserved in outcomes for dead workers.
_STDERR_TAIL_CHARS = 2000


def _retry_delay(content_hash: str, attempt: int, base_s: float) -> float:
    """Deterministic exponential backoff with seeded jitter.

    ``base * 2^(attempt-1) * (1 + frac)`` where ``frac in [0, 1)`` is
    derived from the spec hash and attempt number — reproducible across
    runs (no ``random``), yet decorrelated across specs so a batch of
    crashed workers does not thundering-herd its retries.
    """
    digest = hashlib.sha256(
        f"{content_hash}:{attempt}".encode()
    ).digest()
    frac = int.from_bytes(digest[:4], "big") / 2**32
    return base_s * (2 ** (attempt - 1)) * (1.0 + frac)


def _stderr_tail(path: Optional[str]) -> Optional[str]:
    """Last ~2000 chars of a worker's captured stderr, if any."""
    if path is None:
        return None
    try:
        with open(path, "rb") as fp:
            fp.seek(0, os.SEEK_END)
            size = fp.tell()
            fp.seek(max(0, size - 2 * _STDERR_TAIL_CHARS))
            text = fp.read().decode("utf-8", errors="replace")
    except OSError:
        return None
    text = text.strip()
    if not text:
        return None
    return text[-_STDERR_TAIL_CHARS:]


@dataclass
class RunOutcome:
    """Terminal state of one spec."""

    spec: RunSpec
    #: "ok" | "failed" | "timeout" | "crashed" | "hung" | "interrupted"
    status: str
    payload: Optional[dict[str, Any]] = None
    attempts: int = 0
    duration_s: float = 0.0
    error: Optional[str] = None
    #: Last ~2000 chars of the worker's stderr (crashed/hung/timeout).
    stderr_tail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self, index: int) -> dict[str, Any]:
        """This outcome as JSON (one entry of ``--summary-json``)."""
        record: dict[str, Any] = {
            "index": index,
            "hash": self.spec.content_hash,
            "kind": self.spec.kind,
            "name": self.spec.name,
            "status": self.status,
            "attempts": self.attempts,
            "duration_s": round(self.duration_s, 6),
        }
        if self.payload is not None:
            record["payload_digest"] = payload_digest(self.payload)
        if self.error is not None:
            record["error"] = self.error
        if self.stderr_tail is not None:
            record["stderr_tail"] = self.stderr_tail
        return record


@dataclass
class RunReport:
    """Everything :func:`run_specs` learned about one run."""

    workers: int
    outcomes: list[RunOutcome] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def executed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def failed(self) -> int:
        return sum(
            1
            for o in self.outcomes
            if not o.ok and o.status != "interrupted"
        )

    @property
    def interrupted(self) -> int:
        """Specs abandoned because the run was interrupted."""
        return sum(
            1 for o in self.outcomes if o.status == "interrupted"
        )

    @property
    def all_ok(self) -> bool:
        return self.failed == 0 and self.interrupted == 0

    def summary_record(self) -> dict[str, Any]:
        return {
            "total": len(self.outcomes),
            "executed": self.executed,
            "failed": self.failed,
            "interrupted": self.interrupted,
            "wall_s": round(self.wall_s, 6),
            "workers": self.workers,
        }


def _worker_entry(
    conn,
    spec_dict: dict[str, Any],
    stderr_path: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
) -> None:
    """Child-process body: execute one spec, report over the pipe.

    ``stderr_path`` redirects fd 2 into a file the parent can tail
    after a crash (passed as a path, not an fd, so it works under the
    spawn start method too).  Heartbeats ride the result pipe as
    ``{"hb": ...}`` messages, throttled to one per ~200 ms.
    """
    # Under fork the child inherits the parent's signal handlers —
    # including any InterruptFlag latch, which would make the child
    # *absorb* the supervisor's SIGTERM and force every terminate()
    # through the 5 s kill-escalation grace.  Workers answer to the
    # supervisor, not to the terminal: restore default dispositions.
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except (OSError, ValueError):  # pragma: no cover - non-main thread
        pass
    if stderr_path is not None:
        try:
            fd = os.open(
                stderr_path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                0o644,
            )
            os.dup2(fd, 2)
            os.close(fd)
        except OSError:
            pass  # stderr capture is best-effort
    last_hb = [0.0]

    def heartbeat() -> None:
        now = time.monotonic()
        if now - last_hb[0] < _HB_THROTTLE_S:
            return
        last_hb[0] = now
        try:
            conn.send({"hb": True})
        except (OSError, ValueError):
            pass

    runtime = TaskRuntime(
        checkpoint_dir=checkpoint_dir, heartbeat=heartbeat
    )
    try:
        spec = RunSpec.from_dict(spec_dict)
        t0 = time.perf_counter()
        payload = execute_spec(spec, runtime)
        conn.send(
            {
                "ok": True,
                "payload": payload,
                "duration_s": time.perf_counter() - t0,
            }
        )
    except BaseException as exc:  # report, never let the child re-raise
        try:
            conn.send(
                {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
            )
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass


def _mp_context():
    """Fork where available (cheap, Linux); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


@dataclass
class _Job:
    index: int
    spec: RunSpec
    attempt: int  # 1-based
    proc: Any = None
    conn: Any = None
    started: float = 0.0
    deadline: Optional[float] = None
    #: Last heartbeat (perf_counter); equals ``started`` until one lands.
    last_hb: float = 0.0
    #: Earliest perf_counter time this (retry) job may spawn.
    not_before: float = 0.0
    stderr_path: Optional[str] = None


class _Orchestrator:
    """Bookkeeping shared by the fan-out loop and its completion paths."""

    def __init__(
        self,
        *,
        workers: int,
        timeout_s: Optional[float],
        retries: int,
        obs: Observability,
        t0: float,
        hang_timeout_s: Optional[float] = None,
        checkpoint_root: Optional[str] = None,
        stderr_dir: Optional[str] = None,
        interrupt: Optional["InterruptFlag"] = None,
    ):
        self.workers = workers
        self.timeout_s = timeout_s
        self.retries = retries
        self.obs = obs
        self.t0 = t0
        self.hang_timeout_s = hang_timeout_s
        self.checkpoint_root = checkpoint_root
        self.stderr_dir = stderr_dir
        self.interrupt = interrupt
        self.ctx = _mp_context()
        self.results: dict[int, RunOutcome] = {}

    @property
    def interrupted(self) -> bool:
        return self.interrupt is not None and self.interrupt.triggered

    def abandon(self, job: _Job, *, started: bool) -> None:
        """Record a spec given up on because the run was interrupted.

        ``started`` distinguishes a worker cut down mid-attempt (the
        attempt counts) from a spec that never got to spawn.
        """
        name = (
            self.interrupt.signal_name
            if self.interrupt is not None
            else "signal"
        )
        self.finish(
            job,
            RunOutcome(
                spec=job.spec,
                status="interrupted",
                attempts=job.attempt if started else job.attempt - 1,
                error=f"run interrupted ({name})",
            ),
        )

    def checkpoint_dir_for(self, spec: RunSpec) -> Optional[str]:
        """Per-spec checkpoint directory (shared across attempts)."""
        if self.checkpoint_root is None:
            return None
        return os.path.join(self.checkpoint_root, spec.content_hash)

    def now(self) -> float:
        """Wall seconds since the run started (the runner's sim time)."""
        return time.perf_counter() - self.t0

    def emit(self, name: str, **fields: Any) -> None:
        self.obs.trace.emit(
            round(self.now(), 6), Category.RUNNER, name, **fields
        )

    def finish(self, job: _Job, outcome: RunOutcome) -> None:
        self.results[job.index] = outcome
        self.emit(
            "spec_end",
            spec=outcome.spec.name,
            hash=outcome.spec.content_hash[:12],
            status=outcome.status,
            attempts=outcome.attempts,
            duration_s=round(outcome.duration_s, 6),
        )

    def spawn(self, job: _Job) -> None:
        recv, send = self.ctx.Pipe(duplex=False)
        if self.stderr_dir is not None:
            job.stderr_path = os.path.join(
                self.stderr_dir, f"{job.index}-{job.attempt}.stderr"
            )
        job.proc = self.ctx.Process(
            target=_worker_entry,
            args=(
                send,
                job.spec.to_dict(),
                job.stderr_path,
                self.checkpoint_dir_for(job.spec),
            ),
            daemon=True,
        )
        job.started = time.perf_counter()
        job.last_hb = job.started
        job.deadline = (
            job.started + self.timeout_s
            if self.timeout_s is not None
            else None
        )
        job.proc.start()
        send.close()  # parent keeps only the read end
        job.conn = recv
        self.emit(
            "spec_start",
            spec=job.spec.name,
            hash=job.spec.content_hash[:12],
            attempt=job.attempt,
        )

    def terminate(self, job: _Job) -> None:
        """Stop a live worker: SIGTERM, grace period, then SIGKILL.

        A wedged worker may ignore (or have masked) SIGTERM; the
        escalation guarantees the supervisor always gets its process
        slot back.
        """
        job.proc.terminate()
        job.proc.join(timeout=_TERM_GRACE_S)
        if job.proc.is_alive():
            job.proc.kill()
            job.proc.join(timeout=_TERM_GRACE_S)

    def reap(self, job: _Job) -> None:
        """Close the pipe and join the (already finished) process."""
        try:
            job.conn.close()
        except OSError:
            pass
        job.proc.join(timeout=5.0)
        if job.proc.is_alive():  # pragma: no cover - defensive
            job.proc.kill()
            job.proc.join(timeout=5.0)

    def may_retry(self, job: _Job, status: str, error: str) -> Optional[_Job]:
        """Requeue a crashed/timed-out/hung job if attempts remain."""
        tail = _stderr_tail(job.stderr_path)
        if job.attempt <= self.retries:
            delay = _retry_delay(
                job.spec.content_hash, job.attempt, _RETRY_BACKOFF_S
            )
            self.emit(
                "spec_retry",
                spec=job.spec.name,
                hash=job.spec.content_hash[:12],
                attempt=job.attempt,
                status=status,
                error=error,
                backoff_s=round(delay, 6),
            )
            return _Job(
                job.index,
                job.spec,
                job.attempt + 1,
                not_before=time.perf_counter() + delay,
            )
        self.finish(
            job,
            RunOutcome(
                spec=job.spec,
                status=status,
                attempts=job.attempt,
                duration_s=time.perf_counter() - job.started,
                error=error,
                stderr_tail=tail,
            ),
        )
        return None


def _drain(job: _Job) -> tuple[Optional[dict], bool]:
    """Read the job's pipe: absorb heartbeats, return (final, got_final).

    Heartbeat messages update ``job.last_hb`` and are consumed; the
    first non-heartbeat message is the worker's terminal report.  A pipe
    at EOF (worker died mid-send or before sending) reports
    ``(None, True)`` — a crash for the caller to classify.
    """
    try:
        while job.conn.poll():
            message = job.conn.recv()
            if isinstance(message, dict) and message.keys() == {"hb"}:
                job.last_hb = time.perf_counter()
                continue
            return message, True
    except EOFError:
        return None, True
    return None, False


def _run_pool(orch: _Orchestrator, jobs: Sequence[_Job]) -> None:
    """Drive jobs to completion with at most ``orch.workers`` children."""
    pending: deque[_Job] = deque(jobs)
    running: list[_Job] = []
    while pending or running:
        if orch.interrupted:
            # Graceful stop: tear down live workers (their checkpoints
            # survive for the next run to resume), abandon the rest.
            for job in running:
                orch.terminate(job)
                orch.reap(job)
                orch.abandon(job, started=True)
            for job in pending:
                orch.abandon(job, started=False)
            return
        now = time.perf_counter()
        deferred: list[_Job] = []
        while pending and len(running) < orch.workers:
            job = pending.popleft()
            if job.not_before > now:
                deferred.append(job)  # backoff not elapsed yet
                continue
            orch.spawn(job)
            running.append(job)
        pending.extendleft(reversed(deferred))

        conns = [j.conn for j in running]
        if conns:
            connection_wait(conns, timeout=_POLL_S)
        else:
            time.sleep(_POLL_S)  # only backed-off retries remain

        now = time.perf_counter()
        still_running: list[_Job] = []
        for job in running:
            message, done = _drain(job)
            if not done and not job.proc.is_alive():
                # One final drain: the worker may have sent its report
                # between our read and its exit.
                message, done = _drain(job)
                done = True  # no message now means a crash
            if not done:
                if job.deadline is not None and now > job.deadline:
                    orch.terminate(job)
                    orch.reap(job)
                    retry = orch.may_retry(
                        job,
                        "timeout",
                        f"exceeded {orch.timeout_s}s timeout",
                    )
                    if retry is not None:
                        pending.append(retry)
                    continue
                if (
                    orch.hang_timeout_s is not None
                    and now - max(job.started, job.last_hb)
                    > orch.hang_timeout_s
                ):
                    silent = now - max(job.started, job.last_hb)
                    orch.terminate(job)
                    orch.reap(job)
                    retry = orch.may_retry(
                        job,
                        "hung",
                        f"no heartbeat for {silent:.1f}s "
                        f"(hang_timeout_s={orch.hang_timeout_s})",
                    )
                    if retry is not None:
                        pending.append(retry)
                    continue
                still_running.append(job)
                continue

            orch.reap(job)
            if message is None:
                retry = orch.may_retry(
                    job,
                    "crashed",
                    f"worker died without reporting "
                    f"(exitcode {job.proc.exitcode})",
                )
                if retry is not None:
                    pending.append(retry)
            elif message.get("ok"):
                orch.finish(
                    job,
                    RunOutcome(
                        spec=job.spec,
                        status="ok",
                        payload=message["payload"],
                        attempts=job.attempt,
                        duration_s=float(message["duration_s"]),
                    ),
                )
            else:
                # A clean exception is deterministic: no retry.
                orch.finish(
                    job,
                    RunOutcome(
                        spec=job.spec,
                        status="failed",
                        attempts=job.attempt,
                        duration_s=time.perf_counter() - job.started,
                        error=message.get("error", "unknown error"),
                    ),
                )
        running = still_running


def _run_inline(orch: _Orchestrator, jobs: Sequence[_Job]) -> None:
    """workers=0: execute specs in-process (debug mode, no isolation)."""
    for job in jobs:
        if orch.interrupted:
            orch.abandon(job, started=False)
            continue
        orch.emit(
            "spec_start",
            spec=job.spec.name,
            hash=job.spec.content_hash[:12],
            attempt=1,
        )
        t0 = time.perf_counter()
        runtime = TaskRuntime(
            checkpoint_dir=orch.checkpoint_dir_for(job.spec)
        )
        try:
            # Inline workers share the caller's process, so per-spec
            # spans land on the caller's profiler (pool workers are
            # separate processes and cannot).
            with orch.obs.prof.span("runner.spec"):
                payload = execute_spec(job.spec, runtime)
        except Exception as exc:
            orch.finish(
                job,
                RunOutcome(
                    spec=job.spec,
                    status="failed",
                    attempts=1,
                    duration_s=time.perf_counter() - t0,
                    error=f"{type(exc).__name__}: {exc}",
                ),
            )
        else:
            orch.finish(
                job,
                RunOutcome(
                    spec=job.spec,
                    status="ok",
                    payload=payload,
                    attempts=1,
                    duration_s=time.perf_counter() - t0,
                ),
            )


def run_specs(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    timeout_s: Optional[float] = 600.0,
    retries: int = 1,
    obs: Optional[Observability] = None,
    hang_timeout_s: Optional[float] = None,
    checkpoint_root: Optional[str] = None,
    interrupt: Optional["InterruptFlag"] = None,
) -> RunReport:
    """Execute ``specs`` and return their outcomes in submission order.

    Parameters
    ----------
    workers:
        Concurrent worker processes; ``1`` is serial (still isolated),
        ``0`` runs inline in this process.
    timeout_s:
        Per-spec wall-clock budget, positive (``None`` disables).
    retries:
        Extra attempts after a crash, timeout, or hang (clean
        exceptions are deterministic and never retried).
    obs:
        Observability context for progress events (``runner`` category);
        disabled by default.
    hang_timeout_s:
        Heartbeat watchdog: a worker silent (no heartbeat) this long is
        declared *hung* and terminate→kill escalated, then retried.
        Distinct from ``timeout_s``: a slow-but-heartbeating worker is
        never hung.  ``None`` disables the watchdog.
    checkpoint_root:
        Directory under which each spec gets a checkpoint slot keyed by
        content hash; checkpoint-aware tasks resume there across retry
        attempts.  ``None`` disables task checkpointing.
    interrupt:
        Optional :class:`~repro.checkpoint.policy.InterruptFlag`.  When
        it trips, the run stops gracefully: live workers are
        terminate→kill escalated and unfinished specs report status
        ``"interrupted"`` — checkpoints survive, so rerunning resumes
        the abandoned work.
    """
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError(
            f"timeout_s must be positive, got {timeout_s}"
        )
    if hang_timeout_s is not None and hang_timeout_s <= 0:
        raise ConfigurationError(
            f"hang_timeout_s must be positive, got {hang_timeout_s}"
        )
    seen: set[str] = set()
    for spec in specs:
        if spec.content_hash in seen:
            raise ConfigurationError(
                f"duplicate spec {spec.name!r} "
                f"({spec.content_hash[:12]}) in one run"
            )
        seen.add(spec.content_hash)
    obs = obs if obs is not None else NULL_OBS
    t0 = time.perf_counter()

    stderr_tmp = (
        tempfile.TemporaryDirectory(prefix="repro-runner-stderr-")
        if workers > 0
        else None
    )
    orch = _Orchestrator(
        workers=workers,
        timeout_s=timeout_s,
        retries=retries,
        obs=obs,
        t0=t0,
        hang_timeout_s=hang_timeout_s,
        checkpoint_root=checkpoint_root,
        stderr_dir=stderr_tmp.name if stderr_tmp is not None else None,
        interrupt=interrupt,
    )
    try:
        orch.emit("run_start", n_specs=len(specs), workers=workers)
        jobs = [_Job(i, spec, attempt=1) for i, spec in enumerate(specs)]
        drive = _run_inline if workers == 0 else _run_pool
        with obs.prof.span("runner.run"):
            drive(orch, jobs)

        report = RunReport(
            workers=workers,
            outcomes=[orch.results[i] for i in range(len(specs))],
            wall_s=time.perf_counter() - t0,
        )
        orch.emit("run_end", **report.summary_record())
        return report
    finally:
        if stderr_tmp is not None:
            stderr_tmp.cleanup()
