"""Satellite: byte-identity of the merged report across shard counts.

The cluster's core contract: the merged report is a pure function of
(scenario, seed) — shard count, placement, and process boundaries must
never leak into it.  Every case below compares full payload dicts and
checksums, not summaries.
"""

import pytest

from repro.cluster import ClusterMaster, run_partitioned

DURATION = 6.0
MAX_SESSIONS = 24
EPOCH_S = 2.0
SHARD_COUNTS = (1, 2, 4)


def _cluster(scenario, shards, seed=0):
    with ClusterMaster(
        scenario=scenario,
        seed=seed,
        shards=shards,
        epoch_s=EPOCH_S,
        max_sessions=MAX_SESSIONS,
    ) as master:
        return master.run(duration=DURATION)


class TestShardCountInvariance:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_baseline_scenario_matches_in_process(self, shards):
        report = _cluster("baseline", shards)
        baseline = run_partitioned(
            "baseline", seed=0, duration=DURATION, max_sessions=MAX_SESSIONS
        )
        assert report.merged == baseline.merged
        assert report.checksum() == baseline.checksum()

    def test_all_shard_counts_agree_with_each_other(self):
        checksums = {
            shards: _cluster("baseline", shards).checksum()
            for shards in SHARD_COUNTS
        }
        assert len(set(checksums.values())) == 1

    def test_repeated_runs_are_byte_identical(self):
        first = _cluster("baseline", 2)
        second = _cluster("baseline", 2)
        assert first.merged == second.merged
        assert first.checksum() == second.checksum()


class TestFaultCampaignInvariance:
    """A mid-run FaultCampaign (flash-crowd-chaos) must shard cleanly too."""

    @pytest.mark.parametrize("shards", (1, 2))
    def test_chaos_scenario_matches_in_process(self, shards):
        report = _cluster("flash-crowd-chaos", shards, seed=7)
        baseline = run_partitioned(
            "flash-crowd-chaos",
            seed=7,
            duration=DURATION,
            max_sessions=MAX_SESSIONS,
        )
        assert report.merged == baseline.merged
        assert report.checksum() == baseline.checksum()


class TestSeedSensitivity:
    def test_different_seeds_diverge(self):
        assert (
            _cluster("baseline", 2, seed=0).checksum()
            != _cluster("baseline", 2, seed=1).checksum()
        )
