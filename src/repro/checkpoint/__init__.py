"""Crash-safe execution: deterministic checkpoint/resume.

The simulation stack is deterministic given ``(spec, seed)``; this
package makes it *restartable* without losing that property.  A
checkpoint is a versioned, digest-verified JSON snapshot of every piece
of mutable mid-run state (engine clock and queue, RNG substreams,
monitor windows, health machines, service sessions, churn-driver loop
state), written atomically so a crash mid-write can never corrupt the
last good snapshot.  A run resumed from a checkpoint produces the same
report, byte for byte, as one that never crashed — runs SIGKILLed by
:class:`KillSwitch` (``python -m repro.workload ... --kill-at T``)
assert exactly that.

Layout:

:mod:`repro.checkpoint.snapshot`
    :class:`CheckpointStore` — atomic, digest-verified persistence with
    code-fingerprint staleness detection.
:mod:`repro.checkpoint.policy`
    When to snapshot (:class:`CheckpointConfig`), how to stop
    (:class:`InterruptFlag`, :data:`GRACEFUL_EXIT_CODE`), how to be
    stopped (:class:`KillSwitch`).
:mod:`repro.checkpoint.workload`
    The glue that runs a scale scenario under a checkpoint policy and
    resumes it.
"""

from repro.checkpoint.policy import (
    GRACEFUL_EXIT_CODE,
    CheckpointConfig,
    InterruptFlag,
    KillSwitch,
    RunInterrupted,
)
from repro.checkpoint.snapshot import (
    CHECKPOINT_SCHEMA,
    Checkpoint,
    CheckpointStore,
)
from repro.checkpoint.workload import run_scale_scenario_checkpointed

__all__ = [
    "CHECKPOINT_SCHEMA",
    "Checkpoint",
    "CheckpointConfig",
    "CheckpointStore",
    "GRACEFUL_EXIT_CODE",
    "InterruptFlag",
    "KillSwitch",
    "RunInterrupted",
    "run_scale_scenario_checkpointed",
]
