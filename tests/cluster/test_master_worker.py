"""ClusterMaster on the runner's executor: supervision and kill injection."""

import pytest

from repro.checkpoint.snapshot import CheckpointStore
from repro.cluster import ClusterMaster, run_partitioned
from repro.errors import ClusterError, ConfigurationError
from repro.obs.context import Observability

DURATION = 6.0
MAX_SESSIONS = 24
EPOCH_S = 2.0
PARTITIONS = ("bronze", "gold", "silver")


def _baseline():
    return run_partitioned(
        "baseline", seed=0, duration=DURATION, max_sessions=MAX_SESSIONS
    )


def _cluster(kill_at=(), max_sessions=MAX_SESSIONS, shards=2, **fleet):
    """One job on a master of its own (two shards by default)."""
    with ClusterMaster(
        scenario="baseline",
        seed=0,
        shards=shards,
        epoch_s=EPOCH_S,
        max_sessions=max_sessions,
        **fleet,
    ) as master:
        return master.run(duration=DURATION, kill_at=kill_at)


def _slots(root):
    """Every partition slot under ``root`` holding a snapshot."""
    return [
        CheckpointStore(path.parent).load()
        for path in sorted(root.glob("*/checkpoint.json"))
    ]


def test_two_shard_run_matches_in_process_baseline():
    report = _cluster()
    baseline = _baseline()
    assert report.merged == baseline.merged
    assert report.checksum() == baseline.checksum()
    assert report.shards == 2
    assert report.telemetry["epochs"] == 3  # 6 s in 2 s snapshot intervals
    assert report.telemetry["workers"] == 2
    assert report.telemetry["respawns"] == 0


@pytest.mark.parametrize("shards", [1, 2])
def test_sigkilled_shard_is_respawned_and_resumes(shards, tmp_path):
    # Two kill points arm every partition's task twice, serial (one
    # shard) and parallel alike; the respawn count is exact, so a
    # partition that was never killed fails the test.
    obs = Observability()
    report = _cluster(
        kill_at=(2.0, 4.0),
        shards=shards,
        checkpoint_root=tmp_path / "cluster",
        obs=obs,
    )
    assert report.telemetry["respawns"] == 2 * len(PARTITIONS) == 6
    assert report.merged == _baseline().merged
    runner = [e for e in obs.trace.events() if e.category == "runner"]
    retries = [e for e in runner if e.name == "spec_retry"]
    assert sorted(e.fields["spec"] for e in retries) == [
        f"baseline-{p}" for p in PARTITIONS for _ in range(2)
    ]
    assert {e.fields["status"] for e in retries} == {"crashed"}
    ends = [e for e in runner if e.name == "spec_end"]
    assert [(e.fields["status"], e.fields["attempts"]) for e in ends] == [
        ("ok", 3)
    ] * len(PARTITIONS)


def test_fatal_kill_leaves_every_partition_its_slot(tmp_path):
    # Budget 0 stops each partition at its kill with its last snapshot
    # in its slot; the same job run again (its kills already spent)
    # resumes every slot and still merges to the same bytes.
    root = tmp_path / "cluster"
    with pytest.raises(ClusterError, match="respawn budget"):
        _cluster(
            kill_at=(2.0,), shards=1, checkpoint_root=root, max_respawns=0
        )
    slots = _slots(root)
    assert sorted(s.meta["partition"] for s in slots) == list(PARTITIONS)
    assert {s.meta["step"] for s in slots} == {20}
    report = _cluster(kill_at=(2.0,), shards=1, checkpoint_root=root)
    assert report.telemetry["respawns"] == 0
    assert report.merged == _baseline().merged
    assert not _slots(root)


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
            kill_at=(1.0,),
            checkpoint_root=tmp_path / "cluster",
            max_respawns=0,
        )


def test_respawn_budget_and_kill_are_per_job(tmp_path):
    # Budget 1 covers one kill per partition per job: the second job on
    # the same master and root is killed again and still has its retry.
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
            master.run(duration=DURATION, kill_at=(3.0,)) for _ in range(2)
        ]
    assert [r.telemetry["respawns"] for r in reports] == [3, 3]
    assert reports[1].merged == _baseline().merged


def test_resume_skips_partition_snapshots_of_another_max_sessions(tmp_path):
    # A job that dies for good leaves its partition slots behind; a job
    # with another max_sessions on the same root is another run and
    # must not adopt them.
    root = tmp_path / "cluster"
    with pytest.raises(ClusterError, match="respawn budget"):
        _cluster(kill_at=(3.0,), checkpoint_root=root, max_respawns=0)
    assert _slots(root)
    half = MAX_SESSIONS // 2
    report = _cluster(
        kill_at=(3.0,), max_sessions=half, checkpoint_root=root
    )
    fresh = run_partitioned(
        "baseline", seed=0, duration=DURATION, max_sessions=half
    )
    assert report.merged == fresh.merged


def test_cluster_trace_events_emitted():
    obs = Observability()
    _cluster(obs=obs)
    events = [e for e in obs.trace.events() if e.category == "runner"]
    names = [e.name for e in events]
    assert names[0] == "run_start" and names[-1] == "run_end"
    starts = [e for e in events if e.name == "spec_start"]
    assert sorted(e.fields["spec"] for e in starts) == [
        f"baseline-{p}" for p in PARTITIONS
    ]
    assert names.count("spec_end") == len(PARTITIONS)
