"""A restored scheduler serves the service's own spec objects.

A snapshot names the scheduler's streams in scheduler order, which is
not the service's ``serving`` order once a downgrade re-added a stream
at the end; on restore the scheduler takes the serving specs by name.
Because they are the very objects admission solves on, a resumed run
adopts admission's offers at once, as the uninterrupted run does, and
solves no more than it.
"""

from __future__ import annotations

import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    run_scale_scenario_checkpointed,
)
from repro.checkpoint.workload import load_run_snapshot, restore_run_snapshot
from repro.workload.scenarios import (
    make_scale_run,
    make_scenario,
    run_identity,
    run_scale_scenario,
)

FP = "a" * 64
CONFIG = CheckpointConfig(every_s=1.0)


class _Killed(Exception):
    """Raised by the kill hook; stands in for a crash."""


def _killed_at(store, scenario, step, max_sessions=None):
    """Run checkpointed until ``step`` completes, then crash; the slot
    then holds the snapshot taken after ``step + 1`` steps."""

    def kill(k, t):
        if k == step:
            raise _Killed

    with pytest.raises(_Killed):
        run_scale_scenario_checkpointed(
            scenario,
            store,
            seed=0,
            max_sessions=max_sessions,
            config=CONFIG,
            fingerprint=FP,
            on_step=kill,
        )
    payload = load_run_snapshot(
        store, FP, run_identity(scenario, 0, max_sessions, None), strict=True
    )
    assert payload is not None
    return payload


def test_resume_where_scheduler_and_serving_orders_differ(tmp_path):
    scenario = make_scenario("flash-crowd-chaos", duration=25.0)
    store = CheckpointStore(tmp_path)
    payload = _killed_at(store, scenario, 99, max_sessions=60)
    service = payload["service"]
    scheduled = service["scheduler"]["streams"]
    serving = [name for name, _ in service["serving"]]
    assert sorted(scheduled) == sorted(serving)
    assert scheduled != serving
    resumed = run_scale_scenario_checkpointed(
        scenario,
        store,
        seed=0,
        max_sessions=60,
        config=CONFIG,
        fingerprint=FP,
        strict_resume=True,
    )
    golden = run_scale_scenario(scenario, seed=0, max_sessions=60)
    assert resumed.checksum() == golden.checksum()
    assert resumed.to_dict() == golden.to_dict()


def test_resume_serves_the_service_specs_and_solves_no_more(tmp_path):
    scenario = make_scenario("baseline", duration=20.0)
    kill = 99
    straight = make_scale_run(scenario, seed=0)
    fold = straight.service._admission.fold
    at_kill = {}

    def count(k, t):
        if k == kill:
            at_kill.update(solves=fold.solves, placements=fold.placements)

    straight.on_step = count
    golden = straight.run(scenario.duration)

    payload = _killed_at(CheckpointStore(tmp_path), scenario, kill)
    driver = make_scale_run(scenario, seed=0)
    restore_run_snapshot(driver, payload)
    service = driver.service
    assert service.scheduler.streams
    for spec in service.scheduler.streams:
        assert spec is service._serving[spec.name]
    report = driver.run(scenario.duration)
    assert report.to_dict() == golden.to_dict()
    resumed = service._admission.fold
    assert resumed.solves <= fold.solves - at_kill["solves"]
    assert resumed.placements <= fold.placements - at_kill["placements"]
