"""Master/worker integration: protocol and supervision."""

import pytest

from repro.checkpoint.snapshot import CheckpointStore
from repro.cluster import ClusterMaster, run_partitioned
from repro.errors import ClusterError, ConfigurationError
from repro.obs.context import Observability

DURATION = 6.0
MAX_SESSIONS = 24
EPOCH_S = 2.0


def _baseline():
    return run_partitioned(
        "baseline", seed=0, duration=DURATION, max_sessions=MAX_SESSIONS
    )


def _cluster(
    kill_at_epoch=None,
    resume=False,
    max_sessions=MAX_SESSIONS,
    shards=2,
    **fleet,
):
    """One job on a fleet of its own (two shards by default)."""
    with ClusterMaster(
        scenario="baseline",
        seed=0,
        shards=shards,
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
    assert report.telemetry["epochs"] == 3  # 6 s in 2 s snapshot intervals


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


# One shard owns bronze, gold and silver and runs them in that order;
# its kill clock lays their 6 s end to end, so a kill at (e + 1) * 2 s
# lands in bronze for e = 1 and in gold (at its 2 s) for e = 3.
@pytest.mark.parametrize(
    "epoch", [1, 3], ids=["first-partition", "second-partition"]
)
def test_one_shard_fleet_survives_a_kill_in_any_partition(tmp_path, epoch):
    report = _cluster(
        kill_at_epoch={0: epoch},
        shards=1,
        checkpoint_root=tmp_path / "cluster",
    )
    assert report.telemetry["workers"] == 1
    assert report.telemetry["respawns"] == 1
    assert report.merged == _baseline().merged


def test_kill_in_second_partition_leaves_only_its_slot(tmp_path):
    # Budget 0 stops the job at the kill: the finished first partition
    # has cleared its slot (a respawn reruns it), the second holds its
    # last snapshot, and a resumed job still merges to the same bytes.
    root = tmp_path / "cluster"
    with pytest.raises(ClusterError, match="respawn budget"):
        _cluster(
            kill_at_epoch={0: 3},
            shards=1,
            checkpoint_root=root,
            max_respawns=0,
        )
    assert not CheckpointStore.for_partition(root, "bronze").exists()
    gold = CheckpointStore.for_partition(root, "gold").load()
    assert gold.meta["partition"] == "gold"
    assert gold.meta["step"] == 20
    assert not CheckpointStore.for_partition(root, "silver").exists()
    report = _cluster(resume=True, shards=1, checkpoint_root=root)
    assert report.merged == _baseline().merged


@pytest.mark.parametrize(
    "fleet",
    [
        {"hang_timeout": 0},
        {"hang_timeout": -1.0},
        {"max_respawns": -1},
        {"epoch_s": 0.0},
    ],
    ids=lambda fleet: "=".join(map(str, *fleet.items())),
)
def test_bad_supervision_settings_rejected_at_construction(fleet):
    with pytest.raises(ConfigurationError):
        ClusterMaster(scenario="baseline", shards=1, **fleet)


def test_respawn_budget_exhaustion_raises(tmp_path):
    # Budget 0 means the first death is fatal.
    with pytest.raises(ClusterError, match="respawn budget"):
        _cluster(
            kill_at_epoch={0: 0},
            checkpoint_root=tmp_path / "cluster",
            max_respawns=0,
        )


def test_respawn_budget_and_kill_are_per_job(tmp_path):
    # Budget 1 covers one kill per job: the second job on the same
    # fleet is killed again and still has its respawn.
    with ClusterMaster(
        scenario="baseline",
        seed=0,
        shards=1,
        epoch_s=EPOCH_S,
        max_sessions=MAX_SESSIONS,
        checkpoint_root=tmp_path / "cluster",
        max_respawns=1,
    ) as master:
        reports = [
            master.run(duration=DURATION, kill_at_epoch={0: 1})
            for _ in range(2)
        ]
    assert [r.telemetry["respawns"] for r in reports] == [1, 1]
    assert reports[1].merged == _baseline().merged


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
    assert {"shard_spawn", "merge"} <= names
    spawns = [e for e in cluster_events if e.name == "shard_spawn"]
    assert len(spawns) == 2
