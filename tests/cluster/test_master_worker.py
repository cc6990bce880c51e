"""Master/worker integration: protocol and supervision."""

import pytest

from repro.cluster import ClusterMaster, run_partitioned
from repro.errors import ClusterError
from repro.obs.context import Observability

DURATION = 6.0
MAX_SESSIONS = 24
EPOCH_S = 2.0


def _baseline():
    return run_partitioned(
        "baseline", seed=0, duration=DURATION, max_sessions=MAX_SESSIONS
    )


def _cluster(
    kill_at_epoch=None, resume=False, max_sessions=MAX_SESSIONS, **fleet
):
    """One 2-shard job on a fleet of its own."""
    with ClusterMaster(
        scenario="baseline",
        seed=0,
        shards=2,
        epoch_s=EPOCH_S,
        max_sessions=max_sessions,
        **fleet,
    ) as master:
        return master.run(
            duration=DURATION, resume=resume, kill_at_epoch=kill_at_epoch
        )


def test_two_shard_run_matches_in_process_baseline():
    report = _cluster()
    baseline = _baseline()
    assert report.merged == baseline.merged
    assert report.checksum() == baseline.checksum()
    assert report.shards == 2


def test_sigkilled_shard_is_respawned_and_resumes(tmp_path):
    obs = Observability()
    report = _cluster(
        kill_at_epoch={0: 1}, checkpoint_root=tmp_path / "cluster", obs=obs
    )
    assert report.telemetry["respawns"] == 1
    assert report.merged == _baseline().merged
    names = [
        e.name for e in obs.trace.events() if e.category == "cluster"
    ]
    assert "shard_exit" in names
    assert "shard_respawn" in names
    assert "merge" in names


def test_respawn_budget_exhaustion_raises(tmp_path):
    # Epoch 0 re-arms on every incarnation only if the master passed
    # the kill back — it never does, so exhaustion needs a shard that
    # dies during the *handshake*.  Simulate by killing more often than
    # the budget allows: budget 0 means the first death is fatal.
    with pytest.raises(ClusterError, match="respawn budget"):
        _cluster(
            kill_at_epoch={0: 0},
            checkpoint_root=tmp_path / "cluster",
            max_respawns=0,
        )


def test_resume_skips_partition_snapshots_of_another_max_sessions(tmp_path):
    # A job that dies for good leaves its partition slots behind; a job
    # with another max_sessions on the same root is another run and
    # must not adopt them.
    root = tmp_path / "cluster"
    with pytest.raises(ClusterError, match="respawn budget"):
        _cluster(kill_at_epoch={0: 1}, checkpoint_root=root, max_respawns=0)
    assert list(root.glob("partition-*/checkpoint.json"))
    half = MAX_SESSIONS // 2
    report = _cluster(resume=True, max_sessions=half, checkpoint_root=root)
    fresh = run_partitioned(
        "baseline", seed=0, duration=DURATION, max_sessions=half
    )
    assert report.merged == fresh.merged


def test_master_reuses_fleet_across_jobs():
    with ClusterMaster(
        scenario="baseline",
        seed=0,
        shards=2,
        epoch_s=EPOCH_S,
        max_sessions=MAX_SESSIONS,
    ) as master:
        first = master.run(duration=DURATION)
        pids = {
            s.proc.pid for s in master._fleet.values()
        }
        second = master.run(duration=DURATION)
        assert {
            s.proc.pid for s in master._fleet.values()
        } == pids
    assert first.merged == second.merged


def test_cluster_trace_events_emitted():
    obs = Observability()
    _cluster(obs=obs)
    cluster_events = [
        e for e in obs.trace.events() if e.category == "cluster"
    ]
    names = {e.name for e in cluster_events}
    assert {"shard_spawn", "epoch_barrier", "merge"} <= names
    spawns = [e for e in cluster_events if e.name == "shard_spawn"]
    assert len(spawns) == 2
