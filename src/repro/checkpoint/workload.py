"""Running a scale scenario under a checkpoint policy.

:func:`run_scale_scenario_checkpointed` is
:func:`repro.workload.scenarios.run_scale_scenario` wrapped in crash
safety: periodic snapshots on the virtual clock, automatic resume from
the last verified snapshot, and a final snapshot on cooperative
interrupt.  Because every immutable ingredient (plans, realization,
fault campaign) is a pure function of the seed, a snapshot only carries
the *mutable* mid-run state — the resuming process rebuilds the
scaffolding deterministically and loads the rest.

Determinism contract: a run killed at any point and resumed from its
last checkpoint returns a :class:`~repro.workload.driver.WorkloadReport`
whose ``to_dict()`` payload is byte-identical to an uninterrupted
run's.  ``tests/checkpoint`` and real SIGKILLs from
:class:`~repro.checkpoint.policy.KillSwitch` (``--kill-at``) enforce
this.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from repro.errors import CheckpointError
from repro.checkpoint.policy import (
    CheckpointConfig,
    InterruptFlag,
    RunInterrupted,
)
from repro.checkpoint.snapshot import CheckpointStore
from repro.obs.context import Observability
from repro.runner.fingerprint import code_fingerprint
from repro.workload.driver import ChurnDriver, WorkloadReport
from repro.workload.scenarios import (
    ScaleScenario,
    make_scale_run,
    run_identity,
)


def run_scale_scenario_checkpointed(
    scenario: ScaleScenario,
    store: CheckpointStore,
    seed: int = 0,
    max_sessions: Optional[int] = None,
    obs: Optional[Observability] = None,
    config: Optional[CheckpointConfig] = None,
    fingerprint: Optional[str] = None,
    resume: bool = True,
    strict_resume: bool = False,
    interrupt: Optional[InterruptFlag] = None,
    on_step: Optional[Callable[[int, float], None]] = None,
    partition: Optional[str] = None,
) -> WorkloadReport:
    """Run ``scenario`` with periodic checkpoints, resuming if possible.

    Parameters beyond :func:`run_scale_scenario`'s:

    store:
        Where the run's single checkpoint slot lives.
    config:
        Snapshot cadence (default every 5 virtual seconds).
    fingerprint:
        Code fingerprint stamped into (and demanded of) checkpoints;
        computed from the live tree when omitted.
    resume:
        When True (default) and a usable checkpoint exists, continue
        from it; when False any existing checkpoint is ignored and
        overwritten.
    strict_resume:
        When True, a corrupt or stale checkpoint raises
        (:class:`~repro.errors.CheckpointError` /
        :class:`~repro.errors.StaleCheckpointError`) instead of
        silently starting fresh.  Explicit ``--resume`` flows want
        this; supervised workers want the lenient default.
    interrupt:
        Optional latched-signal flag polled between steps.  When it
        trips, a final checkpoint is flushed and
        :class:`RunInterrupted` is raised.
    on_step:
        Extra per-step hook ``(k, t)``, called after checkpoint
        bookkeeping (the kill-injection harness hangs here).
    partition:
        Run that tenant's slice only (see :func:`make_scale_run`);
        the slice's identity names it, so a slot holds one partition.

    A completed run clears the checkpoint slot: finished work must not
    be "resumed".
    """
    config = config if config is not None else CheckpointConfig()
    if fingerprint is None:
        fingerprint = code_fingerprint()
    if obs is not None:
        # Snapshot writes/restores/rejects join the run's trace, tagged
        # with the virtual time each snapshot captured.
        store.bind_observability(obs)

    meta = run_identity(scenario, seed, max_sessions, partition)
    payload = None
    if resume:
        payload = load_run_snapshot(
            store, fingerprint, meta, strict=strict_resume
        )

    hooks: dict = {}

    def step_hook(k: int, t: float) -> None:
        driver = hooks["driver"]
        done = k + 1
        if interrupt is not None and interrupt.triggered:
            save_run_snapshot(driver, store, fingerprint, meta, done, t)
            raise RunInterrupted(
                f"run interrupted ({interrupt.signal_name}) after "
                f"{done} steps (t={t:.1f}s); checkpoint flushed to "
                f"{store.path}",
                steps_done=done,
                t=t,
            )
        if done % hooks["every_steps"] == 0:
            save_run_snapshot(driver, store, fingerprint, meta, done, t)
        if on_step is not None:
            on_step(k, t)

    driver = make_scale_run(
        scenario,
        seed=seed,
        max_sessions=max_sessions,
        obs=obs,
        on_step=step_hook,
        partition=partition,
    )
    hooks["driver"] = driver
    hooks["every_steps"] = config.every_steps(driver.service.dt)
    if payload is not None:
        restore_run_snapshot(driver, payload)
    try:
        report = driver.run(scenario.duration)
    finally:
        # The hook reaches the driver and the driver holds the hook:
        # unhook, so a finished (or interrupted) run is freed by
        # reference count like an unhooked one.
        driver.on_step = None
    store.clear()
    return report


def save_run_snapshot(
    driver: ChurnDriver,
    store: CheckpointStore,
    fingerprint: str,
    meta: Mapping[str, Any],
    step: int,
    t: float,
) -> None:
    """Write the ``{"service", "driver"}`` snapshot of a run in flight.

    ``meta`` identifies the run (what :func:`load_run_snapshot` will
    demand back); ``step`` and ``t`` say where the snapshot was cut.
    """
    store.save(
        {
            "service": driver.service.state_dict(),
            "driver": driver.state_dict(),
        },
        fingerprint=fingerprint,
        meta={**meta, "step": step, "t": t},
    )


def load_run_snapshot(
    store: CheckpointStore,
    fingerprint: str,
    meta: Mapping[str, Any],
    strict: bool = False,
) -> Optional[dict]:
    """The slot's snapshot payload, if usable and taken for ``meta``.

    ``meta`` is the run's :func:`~repro.workload.scenarios.run_identity`;
    a snapshot whose meta disagrees with it on any key — another rate
    scale, duration, topology, ``max_sessions``, partition — belongs to
    another run.  Lenient (the default; supervised workers and the
    cluster's respawn path must make progress past a damaged slot):
    anything unusable is ``None`` and the run starts fresh.  Strict:
    it raises :class:`~repro.errors.CheckpointError` naming the keys
    that differ.
    """
    checkpoint = store.load(fingerprint=fingerprint, strict=strict)
    if checkpoint is None:
        return None
    differing = _differing_keys(checkpoint.meta, meta)
    if differing:
        if strict:
            raise CheckpointError(
                f"checkpoint in {store.root} belongs to another run: "
                + "; ".join(differing)
            )
        return None
    return checkpoint.payload


def _differing_keys(
    found: Mapping[str, Any], wanted: Mapping[str, Any]
) -> list[str]:
    """``key: found != wanted`` per differing key of ``wanted``, one
    level into nested mappings (``scenario.duration: 20.0 != 30.0``)."""
    pairs = []
    for key, want in wanted.items():
        have = found.get(key)
        if isinstance(want, Mapping) and isinstance(have, Mapping):
            pairs += [
                (f"{key}.{sub}", have.get(sub), want.get(sub))
                for sub in sorted(have.keys() | want.keys())
            ]
        else:
            pairs.append((key, have, want))
    return [
        f"{key}: {have!r} != {want!r}"
        for key, have, want in pairs
        if have != want
    ]


def restore_run_snapshot(driver: ChurnDriver, payload: Mapping) -> None:
    """Load a :func:`load_run_snapshot` payload into a fresh driver."""
    driver.service.load_state_dict(payload["service"])
    driver.load_state_dict(payload["driver"])
