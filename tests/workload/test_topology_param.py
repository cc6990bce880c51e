"""Satellite 1: the default topology path is byte-identical to the seed.

Threading `topology=` through make_scenario/build_service must not move
a single byte of the Figure-8 baseline. The pinned checksum below was
captured on the commit *before* repro.topo existed; if it ever changes,
the default path regressed.
"""

from repro.workload.scenarios import (
    make_scenario,
    run_scale_scenario,
    scenario_params,
)

# The baseline scenario at seed=0, duration=10.0, max_sessions=40 on the
# pre-topology tree. Do not update without a deliberate compat break.
BASELINE_CHECKSUM = (
    "fc371666bbbf3d2dc6f98d11c72440ca45ea7db7bfeee9a5e52881a1394bf67b"
)


class TestDefaultPathUnchanged:
    def test_baseline_report_checksum_pinned(self):
        report = run_scale_scenario(
            make_scenario("baseline", duration=10.0), max_sessions=40
        )
        assert report.checksum() == BASELINE_CHECKSUM

    def test_explicit_none_matches_default(self):
        default = run_scale_scenario(
            make_scenario("baseline", duration=6.0), max_sessions=20
        )
        explicit = run_scale_scenario(
            make_scenario("baseline", duration=6.0, topology=None),
            max_sessions=20,
        )
        assert explicit.checksum() == default.checksum()


class TestScenarioParams:
    def test_topology_key_absent_by_default(self):
        # RunSpec content hashes from pre-topology runs must stay valid,
        # so the key only appears when a topology is actually set.
        scenario = make_scenario("baseline")
        assert "topology" not in scenario_params(scenario)

    def test_topology_key_present_when_set(self):
        scenario = make_scenario("baseline", topology="fat_tree_k4")
        assert scenario_params(scenario)["topology"] == "fat_tree_k4"
