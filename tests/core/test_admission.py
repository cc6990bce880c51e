"""Admission control: the upcall protocol."""

import numpy as np
import pytest

from repro.core.admission import AdmissionController
from repro.core.guarantees import probabilistic_guarantee
from repro.core.mapping import PathQoSEstimate, shifted_cdf
from repro.core.spec import StreamSpec
from repro.errors import ConfigurationError, ReproError
from repro.monitoring.cdf import EmpiricalCDF


@pytest.fixture
def paths(rng):
    return {
        "A": EmpiricalCDF(np.clip(50 + 4 * rng.standard_normal(3000), 0, None)),
        "B": EmpiricalCDF(np.clip(30 + 10 * rng.standard_normal(3000), 0, None)),
    }


class TestAdmit:
    def test_feasible_set_admitted(self, paths):
        specs = [
            StreamSpec(name="ctl", required_mbps=3.0, probability=0.99),
            StreamSpec(name="data", required_mbps=22.0, probability=0.95),
            StreamSpec(name="bulk", elastic=True, nominal_mbps=40.0),
        ]
        decision = AdmissionController(tw=1.0).try_admit(specs, paths)
        assert decision.admitted
        assert decision.mapping is not None
        assert decision.admitted_streams == ("ctl", "data", "bulk")
        assert decision.rejected_stream is None

    def test_infeasible_stream_named(self, paths):
        specs = [
            StreamSpec(name="ok", required_mbps=10.0, probability=0.95),
            StreamSpec(name="greedy", required_mbps=90.0, probability=0.95),
        ]
        decision = AdmissionController(tw=1.0).try_admit(specs, paths)
        assert not decision.admitted
        assert decision.rejected_stream == "greedy"
        assert "greedy" in decision.reason

    def test_rejection_keeps_other_streams(self, paths):
        specs = [
            StreamSpec(name="ok", required_mbps=10.0, probability=0.95),
            StreamSpec(name="greedy", required_mbps=90.0, probability=0.95),
        ]
        decision = AdmissionController(tw=1.0).try_admit(specs, paths)
        assert decision.mapping is not None
        assert decision.admitted_streams == ("ok",)

    def test_suggested_probability_is_renegotiation_hint(self, paths):
        # 45 Mbps can't be had at 99 % on these paths, but can at some
        # lower probability; the hint should be that lower value.
        specs = [StreamSpec(name="want", required_mbps=49.0, probability=0.99)]
        decision = AdmissionController(tw=1.0).try_admit(specs, paths)
        assert not decision.admitted
        hint = decision.suggested_probability
        assert hint is not None
        assert 0.0 < hint < 0.99

    def test_retry_with_hint_succeeds(self, paths):
        controller = AdmissionController(tw=1.0)
        spec = StreamSpec(name="want", required_mbps=49.0, probability=0.99)
        decision = controller.try_admit([spec], paths)
        assert not decision.admitted
        # The application reduces its requirement per the upcall.
        retry_p = decision.suggested_probability * 0.95
        retry = controller.try_admit(
            [StreamSpec(name="want", required_mbps=49.0, probability=retry_p)],
            paths,
        )
        assert retry.admitted

    def test_invalid_tw(self):
        with pytest.raises(ConfigurationError) as raised:
            AdmissionController(tw=0.0)
        assert isinstance(raised.value, ReproError)


class TestBestOffer:
    def test_hint_equals_per_path_sum_over_all_streams(self, paths):
        """The one-pass accumulation is the old per-path generator sum,
        bit for bit (an absent path contributed an exact 0.0)."""
        specs = [
            StreamSpec(name="a", required_mbps=20.0, probability=0.95),
            StreamSpec(name="b", required_mbps=15.0, probability=0.9),
            StreamSpec(name="c", required_mbps=7.5, probability=0.9),
            StreamSpec(name="greedy", required_mbps=30.0, probability=0.85),
        ]
        decision = AdmissionController(tw=1.0).try_admit(specs, paths)
        assert decision.rejected_stream == "greedy"
        partial = decision.mapping
        assert len({p for r in partial.rates_mbps.values() for p in r}) == 2
        best = 0.0
        for path, cdf in paths.items():
            allocated = sum(
                partial.rate(stream, path) for stream in partial.rates_mbps
            )
            best = max(
                best,
                probabilistic_guarantee(shifted_cdf(cdf, allocated), 30.0),
            )
        assert 0.0 < best < 0.85
        assert decision.suggested_probability == best

    #: A is big but slow, B fast but small.
    CEILING_QOS = {
        "A": PathQoSEstimate(rtt_ms=90.0),
        "B": PathQoSEstimate(rtt_ms=20.0),
    }

    def ceiling_paths(self, rng, b_mbps):
        return {
            "A": EmpiricalCDF(np.clip(80 + 2 * rng.standard_normal(500), 0, None)),
            "B": EmpiricalCDF(
                np.clip(b_mbps + 4 * rng.standard_normal(500), 0, None)
            ),
        }

    def test_hint_ignores_paths_over_the_rtt_ceiling(self, rng):
        """Only B meets the 50 ms ceiling and B cannot carry 30 Mbps:
        no hint, not A's P = 1.0."""
        spec = StreamSpec(
            name="ctl", required_mbps=30.0, probability=0.95, max_rtt_ms=50.0
        )
        decision = AdmissionController(tw=1.0).try_admit(
            [spec], self.ceiling_paths(rng, 10.0), self.CEILING_QOS
        )
        assert not decision.admitted
        assert decision.rejected_stream == "ctl"
        assert decision.suggested_probability is None

    def test_hint_is_the_eligible_paths_offer(self, rng):
        paths = self.ceiling_paths(rng, 30.0)
        spec = StreamSpec(
            name="ctl", required_mbps=30.0, probability=0.95, max_rtt_ms=50.0
        )
        decision = AdmissionController(tw=1.0).try_admit(
            [spec], paths, self.CEILING_QOS
        )
        assert not decision.admitted
        offer = probabilistic_guarantee(paths["B"], 30.0)
        assert 0.0 < offer < 0.95
        assert decision.suggested_probability == offer

    def test_no_eligible_path_no_hint(self, rng):
        spec = StreamSpec(
            name="ctl", required_mbps=5.0, probability=0.9, max_rtt_ms=10.0
        )
        decision = AdmissionController(tw=1.0).try_admit(
            [spec], self.ceiling_paths(rng, 30.0), self.CEILING_QOS
        )
        assert not decision.admitted
        assert decision.suggested_probability is None


class TestCeilings:
    """Admission holds RTT/loss ceilings exactly as the remap will."""

    #: Path A: low RTT.  Path B: the only one with room, but slow.
    QOS = {
        "A": PathQoSEstimate(rtt_ms=20.0, loss_rate=0.001),
        "B": PathQoSEstimate(rtt_ms=80.0, loss_rate=0.02),
    }

    def specs(self):
        return [
            StreamSpec(name="big", required_mbps=40.0, probability=0.95),
            StreamSpec(
                name="ctl",
                required_mbps=8.0,
                probability=0.9,
                max_rtt_ms=50.0,
            ),
        ]

    def test_ceiling_only_one_path_meets_is_enforced(self, paths):
        controller = AdmissionController(tw=1.0)
        # Without the monitored levels the ceiling cannot bind: "ctl"
        # lands on B, where the remap (which has them) cannot put it.
        blind = controller.try_admit(self.specs(), paths)
        assert blind.admitted
        assert blind.mapping.paths_of("ctl") == ["B"]
        decision = controller.try_admit(self.specs(), paths, self.QOS)
        assert not decision.admitted
        assert decision.rejected_stream == "ctl"
        assert decision.admitted_streams == ("big",)

    def test_ceiling_met_places_on_the_eligible_path(self, paths):
        specs = [self.specs()[1]]
        decision = AdmissionController(tw=1.0).try_admit(
            specs, paths, self.QOS
        )
        assert decision.admitted
        assert decision.mapping.paths_of("ctl") == ["A"]
