"""Rendezvous placement of tenant partitions onto shards."""

import pytest

from repro.cluster.partition import partition_map, shard_of
from repro.errors import ConfigurationError
from repro.workload.scenarios import partition_ids


class TestShardOf:
    def test_deterministic(self):
        assert shard_of("gold", 4) == shard_of("gold", 4)

    def test_within_range(self):
        for shards in (1, 2, 3, 4, 7):
            for name in ("gold", "silver", "bronze", "tenant-x"):
                assert 0 <= shard_of(name, shards) < shards

    def test_single_shard_owns_everything(self):
        assert shard_of("anything", 1) == 0

    def test_rendezvous_stability_under_growth(self):
        # HRW's defining property: adding shards only ever moves a
        # partition *to a new shard*, never shuffles it between old
        # ones.
        names = [f"tenant-{i}" for i in range(50)]
        for n in (2, 3, 5, 8):
            for name in names:
                before = shard_of(name, n)
                after = shard_of(name, n + 1)
                assert after in (before, n)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            shard_of("gold", 0)
        with pytest.raises(ConfigurationError):
            shard_of("", 2)


class TestPartitionMap:
    def test_default_tenants_spread_across_four_shards(self):
        owners = partition_map(partition_ids(), 4)
        # The salt is chosen so the stock catalog parallelizes fully.
        assert len(owners) == 3
        assert sorted(
            p for owned in owners.values() for p in owned
        ) == ["bronze", "gold", "silver"]

    def test_default_tenants_split_across_two_shards(self):
        owners = partition_map(partition_ids(), 2)
        assert len(owners) == 2

    def test_idle_shards_omitted(self):
        owners = partition_map(["gold"], 8)
        assert len(owners) == 1

    def test_duplicate_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            partition_map(["gold", "gold"], 2)
