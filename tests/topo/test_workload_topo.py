"""The topology parameter through the full stack: workload + cluster.

These are the acceptance-criteria properties in test form: generated
topologies run churn end to end, byte-deterministic per seed, identical
with the scalar oracle and across cluster shard counts, and the traffic
scenarios move the operating point measurably.
"""

import pytest

from repro.cluster.local import run_partitioned
from repro.errors import ConfigurationError
from repro.runner.suite import topo_suite, workload_spec
from repro.workload.envelope import estimate_envelope
from repro.workload.scenarios import make_scenario, run_scale_scenario
from tests.oracles import ScalarReferenceService, service_class

_FAST = dict(seed=0, duration=8.0, max_sessions=30)


def _churn(topology):
    scenario = make_scenario(
        "baseline", duration=_FAST["duration"], topology=topology
    )
    return run_scale_scenario(
        scenario, seed=_FAST["seed"], max_sessions=_FAST["max_sessions"]
    )


class TestScenarioTopology:
    def test_make_scenario_carries_topology(self):
        scenario = make_scenario("baseline", topology="fat_tree_k4")
        assert scenario.topology == "fat_tree_k4"

    def test_bad_topology_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown topology"):
            make_scenario("baseline", topology="moebius_strip")

    @pytest.mark.parametrize(
        "preset", ["fat_tree_k4", "leaf_spine_4x8", "repetita_wan_s0"]
    )
    def test_churn_runs_deterministically(self, preset):
        a = _churn(preset)
        b = _churn(preset)
        assert a.checksum() == b.checksum()
        assert a.offered > 0

    def test_topologies_produce_distinct_reports(self):
        checksums = {
            _churn(preset).checksum()
            for preset in (
                None, "fat_tree_k4", "leaf_spine_4x8", "repetita_wan_s0"
            )
        }
        assert len(checksums) == 4

    def test_backends_byte_identical_on_generated_topology(self):
        with service_class(ScalarReferenceService):
            scalar = _churn("leaf_spine_2x4")
        vectorized = _churn("leaf_spine_2x4")
        assert scalar.checksum() == vectorized.checksum()

    def test_traffic_scenarios_shift_the_report(self):
        nlanr = _churn("fat_tree_k4:nlanr")
        incast = _churn("fat_tree_k4:dc-incast")
        assert nlanr.checksum() != incast.checksum()

    @pytest.mark.slow
    def test_traffic_scenarios_shift_the_envelope(self):
        """The calibrated datacenter scenarios move the fat-tree's
        capacity envelope: incast collapses it, hot-rack skew never
        raises it.  A modeling property, so no timing is involved; the
        search is the reduced one the topology benchmark used."""
        search = dict(
            seed=0,
            iterations=4,
            probe_duration=20.0,
            max_sessions=400,
            hi_scale=16.0,
        )
        envelopes = {
            traffic: estimate_envelope(
                "baseline", topology=f"fat_tree_k4:{traffic}", **search
            )
            for traffic in ("nlanr", "dc-incast", "dc-hotrack")
        }
        rates = {t: e.max_sustainable_rate for t, e in envelopes.items()}
        assert rates["dc-incast"] < rates["nlanr"], rates
        assert rates["dc-hotrack"] <= rates["nlanr"], rates
        # Equality carries information only when the WAN baseline was
        # not right-censored at the top of the search bracket.
        bracket_cap = envelopes["nlanr"].base_rate * search["hi_scale"]
        if rates["nlanr"] < bracket_cap:
            assert rates["dc-hotrack"] < rates["nlanr"], rates


class TestClusterTopology:
    def test_partitioned_baseline_matches_single_process_totals(self):
        single = _churn("leaf_spine_2x4")
        merged = run_partitioned(
            "baseline", topology="leaf_spine_2x4", **_FAST
        )
        assert merged.offered == single.offered

    def test_partitioned_deterministic(self):
        a = run_partitioned("baseline", topology="fat_tree_k4", **_FAST)
        b = run_partitioned("baseline", topology="fat_tree_k4", **_FAST)
        assert a.checksum() == b.checksum()


class TestTopoSuite:
    def test_one_churn_one_envelope_per_preset(self):
        specs = topo_suite(fast=True)
        kinds = [spec.kind for spec in specs]
        assert kinds.count("workload") == 3
        assert kinds.count("envelope") == 3
        for spec in specs:
            assert "topology" in spec.params

    def test_traffic_variants_append_specs(self):
        specs = topo_suite(fast=True, traffic=("dc-incast",))
        assert any(
            spec.params["topology"].endswith(":dc-incast")
            for spec in specs
        )

    def test_topology_joins_spec_hash_only_when_set(self):
        plain = workload_spec("baseline", seed=0)
        assert "topology" not in plain.params
        topo = workload_spec("baseline", seed=0, topology="fat_tree_k4")
        assert topo.params["topology"] == "fat_tree_k4"
        assert plain.name != topo.name
