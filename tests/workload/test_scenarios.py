"""Named scenarios: registry, scaling, and the chaos composition."""

import pytest

from dataclasses import fields

from repro.errors import ConfigurationError
from repro.workload.scenarios import (
    SCENARIOS,
    ScaleScenario,
    make_scenario,
    run_identity,
    run_scale_scenario,
    scenario_params,
)


class TestRegistry:
    def test_standard_names(self):
        assert set(SCENARIOS) == {
            "baseline",
            "diurnal",
            "flash-crowd",
            "flash-crowd-chaos",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scenario("nope")

    def test_bad_rate_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scenario("baseline", rate_scale=0.0)

    def test_rate_scale_scales_model(self):
        base = make_scenario("baseline")
        double = make_scenario("baseline", rate_scale=2.0)
        assert double.model.mean_rate() == pytest.approx(
            2 * base.model.mean_rate()
        )

    def test_duration_override(self):
        scenario = make_scenario("baseline", duration=12.5)
        assert scenario.duration == 12.5

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scenario("baseline", duration=0.0)

    def test_baseline_sized_for_a_thousand_sessions(self):
        assert make_scenario("baseline").expected_sessions() >= 1100

    def test_chaos_scenario_is_lenient(self):
        scenario = make_scenario("flash-crowd-chaos")
        assert not scenario.strict_admission
        assert scenario.with_chaos

    def test_params_are_json_clean(self):
        import json

        for name in SCENARIOS:
            json.dumps(
                scenario_params(make_scenario(name)), allow_nan=False
            )


class TestRunIdentity:
    """The written form of (scenario, seed, max_sessions[, partition])."""

    def test_covers_every_scenario_field(self):
        # A field make_scenario can set but the identity omits is a
        # field a resume could silently cross.
        scenario = make_scenario("baseline", topology="fat_tree_k4")
        params = run_identity(scenario, seed=0)["scenario"]
        assert set(params) == {f.name for f in fields(ScaleScenario)}

    def test_every_make_scale_run_argument_moves_it(self):
        base = make_scenario("baseline")
        slower = make_scenario("baseline", rate_scale=0.5)
        shorter = make_scenario("baseline", duration=20.0)
        same = run_identity(base, 0, 120, "gold")
        assert same == run_identity(make_scenario("baseline"), 0, 120, "gold")
        others = [
            run_identity(slower, 0, 120, "gold"),
            run_identity(shorter, 0, 120, "gold"),
            run_identity(base, 1, 120, "gold"),
            run_identity(base, 0, 60, "gold"),
            run_identity(base, 0, 120, "silver"),
            run_identity(base, 0, 120),
        ]
        assert all(other != same for other in others)

    def test_is_its_own_json_round_trip(self):
        import json

        for name in SCENARIOS:
            identity = run_identity(make_scenario(name), 7, None, "gold")
            assert json.loads(json.dumps(identity)) == identity


class TestChaosComposition:
    """Flash crowd during a fault campaign: no deadlock, books balance."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_scale_scenario(
            make_scenario("flash-crowd-chaos", duration=30.0),
            seed=0,
            max_sessions=50,
        )

    def test_run_completes_with_full_accounting(self, report):
        assert report.offered == 50
        assert (
            report.admitted + report.degraded + report.rejected
            == report.offered
        )
        assert (
            report.closed + report.truncated
            == report.offered - report.rejected
        )

    def test_lenient_admission_never_rejects(self, report):
        assert report.rejected == 0

    def test_faults_leave_a_mark(self, report):
        # The campaign must actually disturb the run: sessions get shed
        # or guarantees degrade/miss somewhere along the way.
        assert (
            report.shed_sessions > 0
            or report.degraded > 0
            or report.violations > 0
        )

    def test_deterministic_under_chaos(self, report):
        rerun = run_scale_scenario(
            make_scenario("flash-crowd-chaos", duration=30.0),
            seed=0,
            max_sessions=50,
        )
        assert report.checksum() == rerun.checksum()
