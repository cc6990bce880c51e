"""Task implementations: pure spec -> JSON-payload functions.

Each entry in :data:`TASKS` maps a spec ``kind`` to a top-level
function (picklable, importable under any multiprocessing start
method) that executes the spec and returns a JSON-serializable payload.
Payloads are *pure* functions of the spec: no wall clocks, hostnames,
PIDs, or attempt counters ever leak in, which is what makes parallel
execution byte-identical to serial and cache entries reusable.

Every payload carries a ``"report"`` key — the human-readable text the
front door writes to ``<output>/<name>.txt`` — plus task-specific
structured fields.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.runner.spec import RunSpec


@dataclass
class TaskRuntime:
    """Execution-context services the executor offers a running task.

    Purely *operational* state — nothing here may influence a payload
    (payloads stay pure functions of the spec):

    checkpoint_dir:
        Per-spec directory for crash-recovery state.  Tasks that can
        checkpoint (workload, envelope) snapshot here and auto-resume
        on their next attempt; tasks without checkpoint support ignore
        it.  ``None`` disables checkpointing.
    heartbeat:
        Zero-argument progress callable.  Long tasks invoke it at step
        granularity so the supervisor can tell *hung* (no heartbeats)
        from merely *slow* (steady heartbeats); the executor throttles
        the actual pipe traffic.
    """

    checkpoint_dir: Optional[str] = None
    heartbeat: Optional[Callable[[], None]] = None

    def beat(self) -> None:
        """Signal liveness (no-op without a supervisor)."""
        if self.heartbeat is not None:
            self.heartbeat()


def jsonify(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    return obj


# ----------------------------------------------------------------------
# figure
# ----------------------------------------------------------------------
def run_figure(
    spec: RunSpec, runtime: Optional[TaskRuntime] = None
) -> dict[str, Any]:
    """Regenerate one figure: params ``{"figure": ..., "fast": ...}``.

    The RNG seed is the spec's :meth:`~RunSpec.effective_seed` — the
    suite builder pins each figure's canonical seed explicitly, so the
    report bytes match ``python -m repro.harness <figure>``.
    """
    from repro.harness.figures import FIGURES

    name = spec.params.get("figure")
    if name not in FIGURES:
        raise ConfigurationError(
            f"unknown figure {name!r}; known: {sorted(FIGURES)}"
        )
    result = FIGURES[name](
        seed=spec.effective_seed(),
        fast=bool(spec.params.get("fast", False)),
    )
    return {
        "figure_id": result.figure_id,
        "title": result.title,
        "report": result.render() + "\n",
        "measured": jsonify(result.measured),
        "notes": list(result.notes),
    }


# ----------------------------------------------------------------------
# chaos campaign
# ----------------------------------------------------------------------
def run_chaos(
    spec: RunSpec, runtime: Optional[TaskRuntime] = None
) -> dict[str, Any]:
    """The canonical seeded chaos campaign (tools/run_chaos.py's run)."""
    from repro.harness.chaos import standard_chaos_run

    report = standard_chaos_run(
        seed=spec.effective_seed(),
        duration=float(spec.params.get("duration", 80.0)),
    )
    return {
        "campaign": report.campaign,
        "report": report.summary() + "\n",
        "detected": report.detected,
        "recovered": report.recovered,
        "time_to_detect": report.time_to_detect,
        "time_to_recover": report.time_to_recover,
        "remap_count": report.remap_count,
        "violation_seconds": jsonify(report.violation_seconds),
    }


# ----------------------------------------------------------------------
# workload scenarios and capacity envelopes
# ----------------------------------------------------------------------
def run_workload(
    spec: RunSpec, runtime: Optional[TaskRuntime] = None
) -> dict[str, Any]:
    """One churn scenario: params ``{"scenario": ..., "rate_scale": ...}``.

    Runs the scenario with the spec's seed; a ``partition`` param runs
    that tenant's slice only (the sharded cluster's task).
    The payload embeds the report's own ``checksum`` so byte-identity
    across worker counts (and against fresh runs) is a string compare.

    With ``runtime.checkpoint_dir`` set the run is crash-safe: it
    snapshots every ``checkpoint_every`` virtual seconds (param,
    default 5.0) and a retried attempt resumes from the last verified
    snapshot instead of starting over.  The report — and therefore the
    payload — is byte-identical either way.  ``kill_points`` (a list of
    virtual times, honored only when checkpointing) arms a
    :class:`~repro.checkpoint.KillSwitch`: the worker SIGKILLs *itself*
    at each point, once per completed run (the marker is removed when
    the run ends, so the same spec run again is killed again), which is
    how ``--shards N --kill-at T`` exercises the supervisor.
    """
    from repro.workload import make_scale_run, make_scenario

    scenario = make_scenario(
        str(spec.params["scenario"]),
        rate_scale=float(spec.params.get("rate_scale", 1.0)),
        duration=spec.params.get("duration"),
        topology=spec.params.get("topology"),
    )
    seed = spec.effective_seed()
    max_sessions = spec.params.get("max_sessions")
    partition = spec.params.get("partition")
    if runtime is None or runtime.checkpoint_dir is None:
        report = make_scale_run(
            scenario,
            seed=seed,
            max_sessions=max_sessions,
            partition=partition,
        ).run(scenario.duration)
    else:
        from repro.checkpoint import (
            CheckpointConfig,
            CheckpointStore,
            KillSwitch,
            run_scale_scenario_checkpointed,
        )

        kill_points = spec.params.get("kill_points") or []
        switch = (
            KillSwitch(
                runtime.checkpoint_dir,
                [float(t) for t in kill_points],
            )
            if kill_points
            else None
        )

        def on_step(k: int, t: float) -> None:
            runtime.beat()
            if switch is not None:
                switch.maybe_kill(t)

        report = run_scale_scenario_checkpointed(
            scenario,
            CheckpointStore(runtime.checkpoint_dir),
            seed=seed,
            max_sessions=max_sessions,
            config=CheckpointConfig(
                every_s=float(spec.params.get("checkpoint_every", 5.0))
            ),
            on_step=on_step,
            partition=partition,
        )
        if switch is not None:
            switch.reset()
    return {
        "report": report.render() + "\n",
        "workload": jsonify(report.to_dict()),
        "checksum": report.checksum(),
    }


def run_envelope(
    spec: RunSpec, runtime: Optional[TaskRuntime] = None
) -> dict[str, Any]:
    """One capacity-envelope search: params name the scenario + search.

    ``{"scenario": ..., "ceiling": ..., "iterations": ...,
    "probe_duration": ..., "max_sessions": ...}``.

    With ``runtime.checkpoint_dir`` set, resume is probe-granular: the
    bisection path is a pure function of the probe verdicts, so
    finished probes are journaled (atomically, keyed by rate scale) and
    a retried attempt replays them instead of rerunning — landing at
    the bit-identical envelope.
    """
    from repro.fsutil import atomic_write_text
    from repro.workload import estimate_envelope

    resume_probes = None
    on_probe = None
    if runtime is not None and runtime.checkpoint_dir is not None:
        os.makedirs(runtime.checkpoint_dir, exist_ok=True)
        journal_path = os.path.join(
            runtime.checkpoint_dir, "probes.json"
        )
        journal: dict[str, Any] = {}
        if os.path.exists(journal_path):
            try:
                with open(journal_path, encoding="utf-8") as fp:
                    journal = json.load(fp)
            except (OSError, json.JSONDecodeError):
                journal = {}  # unusable journal: recompute all probes
        resume_probes = {
            float(scale): entry for scale, entry in journal.items()
        }

        def on_probe(probe) -> None:
            if runtime.heartbeat is not None:
                runtime.beat()
            journal[repr(probe.rate_scale)] = probe.to_dict()
            atomic_write_text(journal_path, json.dumps(journal))

    envelope = estimate_envelope(
        str(spec.params["scenario"]),
        seed=spec.effective_seed(),
        ceiling=float(spec.params.get("ceiling", 0.05)),
        iterations=int(spec.params.get("iterations", 6)),
        probe_duration=float(spec.params.get("probe_duration", 30.0)),
        max_sessions=spec.params.get("max_sessions"),
        resume_probes=resume_probes,
        on_probe=on_probe,
        topology=spec.params.get("topology"),
    )
    return {
        "report": envelope.render() + "\n",
        "envelope": jsonify(envelope.to_dict()),
        "checksum": envelope.checksum(),
    }


# ----------------------------------------------------------------------
# selftest (executor plumbing probes)
# ----------------------------------------------------------------------
def run_selftest(
    spec: RunSpec, runtime: Optional[TaskRuntime] = None
) -> dict[str, Any]:
    """Controlled success/crash/hang behaviors for tests and smoke runs.

    Modes: ``echo`` returns ``value``; ``sleep`` sleeps ``sleep_s``
    while heartbeating (slow-but-alive: must *not* trip the hang
    watchdog); ``raise`` raises; ``crash`` hard-exits the worker;
    ``crash_once`` hard-exits only while the ``marker`` file is absent
    (creating it first), so a retry succeeds — the bounded-retry path
    in one spec; ``hang`` stops heartbeating and ignores SIGTERM (the
    watchdog's terminate→kill escalation target); ``hang_once`` hangs
    only while the ``marker`` file is absent, so a retry succeeds.
    ``stderr`` writes ``message`` to stderr before crashing (tail
    capture probe).
    """
    import signal

    mode = spec.params.get("mode", "echo")
    value = spec.params.get("value")
    if mode == "sleep":
        deadline = time.monotonic() + float(spec.params.get("sleep_s", 0.1))
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                break
            time.sleep(min(0.05, left))
            if runtime is not None:
                runtime.beat()
    elif mode == "raise":
        raise RuntimeError(spec.params.get("message", "selftest failure"))
    elif mode == "crash":
        os._exit(int(spec.params.get("exit_code", 3)))
    elif mode == "stderr":
        # Straight to fd 2 (not sys.stderr, which test harnesses may
        # replace): the point is to exercise the executor's fd-level
        # stderr capture, like a dying C extension would.
        message = spec.params.get("message", "selftest stderr")
        os.write(2, (message + "\n").encode())
        os._exit(int(spec.params.get("exit_code", 3)))
    elif mode == "crash_once":
        marker = spec.params["marker"]
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8") as fp:
                fp.write("crashed\n")
            os._exit(int(spec.params.get("exit_code", 3)))
    elif mode in ("hang", "hang_once"):
        marker = spec.params.get("marker")
        if mode == "hang" or (marker and not os.path.exists(marker)):
            if marker:
                with open(marker, "w", encoding="utf-8") as fp:
                    fp.write("hung\n")
            # A real wedge: no heartbeats, and SIGTERM is ignored so
            # only the supervisor's kill escalation can clear it.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            while True:
                time.sleep(0.1)
    elif mode != "echo":
        raise ConfigurationError(f"unknown selftest mode {mode!r}")
    return {"value": value, "report": f"selftest {mode}: {value}\n"}


#: Dispatch table: spec kind -> task function.
TASKS: dict[
    str, Callable[[RunSpec, Optional[TaskRuntime]], dict[str, Any]]
] = {
    "figure": run_figure,
    "chaos": run_chaos,
    "workload": run_workload,
    "envelope": run_envelope,
    "selftest": run_selftest,
}


def execute_spec(
    spec: RunSpec, runtime: Optional[TaskRuntime] = None
) -> dict[str, Any]:
    """Dispatch one spec to its task; the single worker entry point."""
    task = TASKS.get(spec.kind)
    if task is None:
        raise ConfigurationError(
            f"unknown spec kind {spec.kind!r}; known: {sorted(TASKS)}"
        )
    payload = task(spec, runtime)
    if "report" not in payload:
        raise ConfigurationError(
            f"task {spec.kind!r} returned no 'report' key"
        )
    return payload
