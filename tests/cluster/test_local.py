"""Partition slices, the canonical merge, and the in-process baseline."""

import pytest

from repro.cluster.local import run_partitioned
from repro.errors import ConfigurationError
from repro.workload import merge_report_payloads, merged_checksum
from repro.workload.scenarios import (
    make_scale_run,
    make_scenario,
    partition_ids,
)

SCENARIO = make_scenario("baseline", duration=8.0)
MAX_SESSIONS = 24


def _slice(partition, seed=0, max_sessions=MAX_SESSIONS):
    driver = make_scale_run(
        SCENARIO, seed=seed, max_sessions=max_sessions, partition=partition
    )
    return driver.run(SCENARIO.duration)


def _slice_payloads(seed=0):
    return {
        partition: _slice(partition, seed=seed).to_dict()
        for partition in partition_ids()
    }


class TestSlices:
    def test_slices_cover_the_full_plan_exactly_once(self):
        payloads = _slice_payloads()
        indices = sorted(
            s["index"]
            for payload in payloads.values()
            for s in payload["sessions"]
        )
        assert indices == list(range(MAX_SESSIONS))

    def test_each_slice_holds_only_its_tenant(self):
        for partition, payload in _slice_payloads().items():
            assert set(payload["tenants"]) <= {partition}
            assert all(
                s["tenant"] == partition for s in payload["sessions"]
            )

    def test_slice_is_deterministic(self):
        a = _slice("gold", seed=3)
        b = _slice("gold", seed=3)
        assert a.to_dict() == b.to_dict()

    def test_unknown_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown partition"):
            make_scale_run(SCENARIO, partition="platinum")


class TestMerge:
    def test_merge_sums_counters_and_sorts_sessions(self):
        payloads = _slice_payloads()
        merged = merge_report_payloads(payloads)
        assert merged["offered"] == sum(
            p["offered"] for p in payloads.values()
        )
        assert merged["partitions"] == sorted(payloads)
        keys = [
            (s["tenant"], s["index"]) for s in merged["sessions"]
        ]
        assert keys == sorted(keys)

    def test_merge_is_independent_of_input_order(self):
        payloads = _slice_payloads()
        reversed_view = dict(sorted(payloads.items(), reverse=True))
        assert merged_checksum(
            merge_report_payloads(payloads)
        ) == merged_checksum(merge_report_payloads(reversed_view))

    def test_merge_never_embeds_shard_count(self):
        merged = merge_report_payloads(_slice_payloads())
        assert "shards" not in merged

    def test_empty_merge_rejected(self):
        with pytest.raises(ConfigurationError, match="zero"):
            merge_report_payloads({})

    def test_invariant_disagreement_rejected(self):
        payloads = _slice_payloads()
        payloads["gold"] = dict(payloads["gold"], seed=99)
        with pytest.raises(ConfigurationError, match="disagree on 'seed'"):
            merge_report_payloads(payloads)

    def test_overlapping_tenants_rejected(self):
        payloads = _slice_payloads()
        payloads["bronze"] = dict(payloads["gold"])
        with pytest.raises(ConfigurationError, match="more than one"):
            merge_report_payloads(payloads)


class TestBaseline:
    def test_run_partitioned_equals_manual_slice_merge(self):
        report = run_partitioned(
            "baseline", seed=0, duration=8.0, max_sessions=MAX_SESSIONS
        )
        manual = merge_report_payloads(_slice_payloads())
        assert report.merged == manual
        assert report.checksum() == merged_checksum(manual)

    def test_baseline_totals_match_session_population(self):
        report = run_partitioned(
            "baseline", seed=0, duration=8.0, max_sessions=MAX_SESSIONS
        )
        assert report.offered == MAX_SESSIONS
        assert len(report.merged["sessions"]) == MAX_SESSIONS
