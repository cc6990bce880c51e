"""The determinism contract: interrupted + resumed == uninterrupted.

These tests drive :func:`run_scale_scenario_checkpointed` through
cooperative interruption (the SIGKILL variant lives in
``test_crash_harness.py``) and assert the resumed report's payload is
*equal*, not merely close, to the golden uninterrupted run's.
"""

from __future__ import annotations

import gc
import re
import weakref

import pytest

from repro.checkpoint import workload as checkpoint_workload
from repro.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    RunInterrupted,
    run_scale_scenario_checkpointed,
)
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    StaleCheckpointError,
)
from repro.workload.scenarios import make_scenario, run_scale_scenario

FP = "a" * 64

DURATION = 8.0
MAX_SESSIONS = 60


class _TripAfter:
    """InterruptFlag stand-in that trips after N observed steps."""

    def __init__(self, steps: int):
        self.steps = steps
        self.seen = 0
        self.signal_name = "SIGTEST"

    @property
    def triggered(self) -> bool:
        return self.seen >= self.steps

    def note(self, k: int, t: float) -> None:
        self.seen += 1


def scenario():
    return make_scenario("baseline", duration=DURATION)


def golden():
    return run_scale_scenario(
        scenario(), seed=0, max_sessions=MAX_SESSIONS
    )


@pytest.mark.parametrize("stop_after_steps", [7, 31, 50])
def test_interrupt_resume_is_byte_identical(tmp_path, stop_after_steps):
    store = CheckpointStore(tmp_path)
    flag = _TripAfter(stop_after_steps)
    with pytest.raises(RunInterrupted) as excinfo:
        run_scale_scenario_checkpointed(
            scenario(),
            store,
            seed=0,
            max_sessions=MAX_SESSIONS,
            config=CheckpointConfig(every_s=1.0),
            fingerprint=FP,
            interrupt=flag,
            on_step=flag.note,
        )
    assert excinfo.value.steps_done > 0
    assert store.exists(), "interrupt must flush a final checkpoint"

    resumed = run_scale_scenario_checkpointed(
        scenario(),
        store,
        seed=0,
        max_sessions=MAX_SESSIONS,
        config=CheckpointConfig(every_s=1.0),
        fingerprint=FP,
        strict_resume=True,
    )
    assert resumed.to_dict() == golden().to_dict()
    assert not store.exists(), "completed run must clear its slot"


def test_double_interrupt_then_resume(tmp_path):
    # Kill, resume a little, kill again, then finish: state must
    # survive chained resumes, not just one.
    store = CheckpointStore(tmp_path)
    for stop in (10, 25):
        flag = _TripAfter(stop)
        with pytest.raises(RunInterrupted):
            run_scale_scenario_checkpointed(
                scenario(),
                store,
                seed=0,
                max_sessions=MAX_SESSIONS,
                config=CheckpointConfig(every_s=1.0),
                fingerprint=FP,
                interrupt=flag,
                on_step=flag.note,
            )
    final = run_scale_scenario_checkpointed(
        scenario(),
        store,
        seed=0,
        max_sessions=MAX_SESSIONS,
        config=CheckpointConfig(every_s=1.0),
        fingerprint=FP,
    )
    assert final.to_dict() == golden().to_dict()


def test_periodic_checkpoint_does_not_perturb_run(tmp_path):
    store = CheckpointStore(tmp_path)
    report = run_scale_scenario_checkpointed(
        scenario(),
        store,
        seed=0,
        max_sessions=MAX_SESSIONS,
        config=CheckpointConfig(every_s=0.5),  # aggressive cadence
        fingerprint=FP,
    )
    assert report.to_dict() == golden().to_dict()


def test_stale_checkpoint_rejected_on_strict_resume(tmp_path):
    store = CheckpointStore(tmp_path)
    flag = _TripAfter(20)
    with pytest.raises(RunInterrupted):
        run_scale_scenario_checkpointed(
            scenario(),
            store,
            seed=0,
            max_sessions=MAX_SESSIONS,
            fingerprint=FP,
            interrupt=flag,
            on_step=flag.note,
        )
    # "The code changed": a different fingerprint demands a loud
    # failure on the strict path and a fresh (still identical) run on
    # the lenient one.
    with pytest.raises(StaleCheckpointError):
        run_scale_scenario_checkpointed(
            scenario(),
            store,
            seed=0,
            max_sessions=MAX_SESSIONS,
            fingerprint="b" * 64,
            strict_resume=True,
        )
    lenient = run_scale_scenario_checkpointed(
        scenario(),
        store,
        seed=0,
        max_sessions=MAX_SESSIONS,
        fingerprint="b" * 64,
    )
    assert lenient.to_dict() == golden().to_dict()


def test_mismatched_run_context_rejected(tmp_path):
    store = CheckpointStore(tmp_path)
    flag = _TripAfter(20)
    with pytest.raises(RunInterrupted):
        run_scale_scenario_checkpointed(
            scenario(),
            store,
            seed=0,
            max_sessions=MAX_SESSIONS,
            fingerprint=FP,
            interrupt=flag,
            on_step=flag.note,
        )
    # Same store, different seed: strict resume refuses to graft the
    # checkpoint onto a different run.
    with pytest.raises(CheckpointError, match="seed"):
        run_scale_scenario_checkpointed(
            scenario(),
            store,
            seed=1,
            max_sessions=MAX_SESSIONS,
            fingerprint=FP,
            strict_resume=True,
        )


@pytest.mark.parametrize(
    "key, other_scenario, other_sessions",
    [
        ("max_sessions", {}, MAX_SESSIONS // 2),
        ("scenario.model", {"rate_scale": 0.5}, MAX_SESSIONS),
        ("scenario.duration", {"duration": DURATION - 2.0}, MAX_SESSIONS),
        ("scenario.topology", {"topology": "leaf_spine_2x4"}, MAX_SESSIONS),
    ],
    ids=["max_sessions", "rate_scale", "duration", "topology"],
)
def test_snapshot_of_another_run_is_never_adopted(
    tmp_path, key, other_scenario, other_sessions
):
    # A run is (scenario, seed, max_sessions): a snapshot cut under any
    # other value of those is another run's, however the slot is shared.
    store = CheckpointStore(tmp_path)
    flag = _TripAfter(20)
    with pytest.raises(RunInterrupted):
        run_scale_scenario_checkpointed(
            scenario(),
            store,
            seed=0,
            max_sessions=MAX_SESSIONS,
            fingerprint=FP,
            interrupt=flag,
            on_step=flag.note,
        )
    other = make_scenario(
        "baseline", **{"duration": DURATION, **other_scenario}
    )
    with pytest.raises(CheckpointError, match=re.escape(key + ":")):
        run_scale_scenario_checkpointed(
            other,
            store,
            seed=0,
            max_sessions=other_sessions,
            fingerprint=FP,
            strict_resume=True,
        )
    lenient = run_scale_scenario_checkpointed(
        other, store, seed=0, max_sessions=other_sessions, fingerprint=FP
    )
    fresh = run_scale_scenario(other, seed=0, max_sessions=other_sessions)
    assert lenient.to_dict() == fresh.to_dict()


def test_resume_false_ignores_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    flag = _TripAfter(20)
    with pytest.raises(RunInterrupted):
        run_scale_scenario_checkpointed(
            scenario(),
            store,
            seed=0,
            max_sessions=MAX_SESSIONS,
            fingerprint=FP,
            interrupt=flag,
            on_step=flag.note,
        )
    report = run_scale_scenario_checkpointed(
        scenario(),
        store,
        seed=0,
        max_sessions=MAX_SESSIONS,
        fingerprint=FP,
        resume=False,
    )
    assert report.to_dict() == golden().to_dict()


def test_resume_inside_a_quiet_horizon():
    """A snapshot cut while a monitor's remap trigger is skipping.

    The horizon is derived state outside ``state_dict``: the resumed
    service evaluates its first check and must land on the same
    decisions, hence the same report checksum.
    """
    import json

    from repro.core.spec import StreamSpec
    from repro.middleware.service import IQPathsService
    from repro.network.emulab import make_figure8_testbed
    from repro.runner.cache import payload_digest

    realization = make_figure8_testbed().realize(
        seed=5, duration=85.0, dt=0.1
    )

    def fresh():
        service = IQPathsService(realization, warmup_intervals=100)
        service.open_streams(
            [
                StreamSpec(name="crit", required_mbps=8.0, probability=0.9),
                StreamSpec(name="bulk", elastic=True, nominal_mbps=20.0),
            ]
        )
        return service

    def checksum(service):
        return payload_digest(
            {n: r.mbps.tolist() for n, r in service.reports().items()}
        )

    uninterrupted = fresh()
    uninterrupted.advance(70.0)

    cut = fresh()
    cut.advance(50.0)  # 100 seeded + 500 observed: the windows are full
    quiet = [
        m
        for m in cut.scheduler.monitors.values()
        if m.bandwidth.updates < m._quiet_until
    ]
    assert quiet, "the cut must fall inside some monitor's quiet horizon"
    state = json.loads(json.dumps(cut.state_dict()))
    resumed = IQPathsService(realization, warmup_intervals=100)
    resumed.load_state_dict(state)
    resumed.advance(20.0)
    assert checksum(resumed) == checksum(uninterrupted)
    assert payload_digest(resumed.state_dict()) == payload_digest(
        uninterrupted.state_dict()
    )


def test_driver_refuses_midrun_restore(tmp_path):
    from repro.workload.scenarios import make_scale_run

    store = CheckpointStore(tmp_path)
    flag = _TripAfter(20)
    with pytest.raises(RunInterrupted):
        run_scale_scenario_checkpointed(
            scenario(),
            store,
            seed=0,
            max_sessions=MAX_SESSIONS,
            fingerprint=FP,
            interrupt=flag,
            on_step=flag.note,
        )
    payload = store.load(fingerprint=FP).payload
    driver = make_scale_run(scenario(), seed=0, max_sessions=MAX_SESSIONS)
    driver.run(1.0)  # no longer fresh
    with pytest.raises(ConfigurationError, match="fresh"):
        driver.load_state_dict(payload["driver"])


def test_finished_and_interrupted_runs_are_freed_by_refcount(
    tmp_path, monkeypatch
):
    """The step hook reaches the driver and the driver holds the hook;
    the run unhooks on the way out, so neither a completed nor an
    interrupted run waits for the cyclic collector."""
    services = []
    make = checkpoint_workload.make_scale_run

    def recording(*args, **kwargs):
        driver = make(*args, **kwargs)
        services.append(weakref.ref(driver.service))
        return driver

    monkeypatch.setattr(checkpoint_workload, "make_scale_run", recording)

    def run(interrupt=None):
        return run_scale_scenario_checkpointed(
            scenario(),
            CheckpointStore(tmp_path),
            seed=0,
            max_sessions=MAX_SESSIONS,
            config=CheckpointConfig(every_s=1.0),
            fingerprint=FP,
            interrupt=interrupt,
            on_step=None if interrupt is None else interrupt.note,
        )

    gc.collect()
    gc.disable()
    try:
        with pytest.raises(RunInterrupted):
            run(_TripAfter(20))
        run()
        assert [ref() for ref in services] == [None, None]
    finally:
        gc.enable()
