"""Stream utility specifications."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.core.spec import StreamSpec, WindowConstraint


class TestWindowConstraint:
    def test_fraction(self):
        assert WindowConstraint(x=3, y=4).fraction == 0.75

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowConstraint(x=5, y=4)
        with pytest.raises(ConfigurationError):
            WindowConstraint(x=-1, y=4)
        with pytest.raises(ConfigurationError):
            WindowConstraint(x=0, y=0)


class TestStreamSpec:
    def test_guaranteed_flag(self):
        spec = StreamSpec(name="s", required_mbps=10.0, probability=0.95)
        assert spec.guaranteed
        assert not StreamSpec(name="e", elastic=True, nominal_mbps=5.0).guaranteed

    def test_weight_uses_required_rate(self):
        spec = StreamSpec(name="s", required_mbps=10.0)
        assert spec.weight == 10.0

    def test_elastic_weight_uses_nominal(self):
        spec = StreamSpec(name="e", elastic=True, nominal_mbps=40.0)
        assert spec.weight == 40.0

    def test_elastic_demand_unbounded(self):
        spec = StreamSpec(name="e", elastic=True, nominal_mbps=40.0)
        assert spec.demand_mbps is None

    def test_cbr_demand_is_required(self):
        spec = StreamSpec(name="s", required_mbps=22.148, probability=0.95)
        assert spec.demand_mbps == 22.148

    def test_packets_in_window(self):
        spec = StreamSpec(name="s", required_mbps=12.0)
        assert spec.packets_in_window(1.0) == 1000

    def test_packets_from_window_constraint(self):
        spec = StreamSpec(
            name="s",
            elastic=True,
            nominal_mbps=1.0,
            window_constraint=WindowConstraint(x=50, y=100),
        )
        assert spec.packets_in_window(1.0) == 50

    def test_rate_from_packets_round_trip(self):
        spec = StreamSpec(name="s", required_mbps=25.0)
        x = spec.packets_in_window(1.0)
        assert spec.rate_from_packets(x, 1.0) >= 25.0

    def test_probability_needs_required(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(name="s", probability=0.95, elastic=True, nominal_mbps=1.0)

    def test_non_elastic_needs_required(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(name="s")

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(name="s", required_mbps=1.0, probability=1.0)

    def test_invalid_required(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(name="s", required_mbps=0.0)

    def test_invalid_violation_rate(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(name="s", required_mbps=1.0, max_violation_rate=1.0)

    def test_empty_name(self):
        with pytest.raises(ConfigurationError):
            StreamSpec(name="", required_mbps=1.0)

    def test_elastic_with_guarantee_allowed(self):
        # Video: base rate guaranteed, elastic surplus on top.
        spec = StreamSpec(
            name="video",
            required_mbps=2.0,
            probability=0.97,
            elastic=True,
            nominal_mbps=12.0,
        )
        assert spec.guaranteed and spec.elastic
        assert spec.demand_mbps is None

    def test_mapping_precedence(self):
        """Guarantees by P descending, then violation bounds tightest
        first, bigger rate first within either; elastic unplaced."""
        specs = [
            StreamSpec(name="vb", required_mbps=4.0, max_violation_rate=0.1),
            StreamSpec(name="lo", required_mbps=9.0, probability=0.9),
            StreamSpec(name="hi", required_mbps=1.0, probability=0.99),
            StreamSpec(name="big", required_mbps=20.0, probability=0.9),
            StreamSpec(name="vb2", required_mbps=4.0, max_violation_rate=0.05),
        ]
        ordered = sorted(specs, key=lambda s: s.mapping_precedence)
        assert [s.name for s in ordered] == ["hi", "big", "lo", "vb2", "vb"]
        assert StreamSpec(
            name="e", elastic=True, nominal_mbps=5.0
        ).mapping_precedence is None

    def test_mapping_precedence_is_derived_not_a_field(self):
        spec = StreamSpec(name="s", required_mbps=10.0, probability=0.95)
        assert "mapping_precedence" not in spec.to_dict()
        assert StreamSpec.from_dict(spec.to_dict()) == spec
        lowered = replace(spec, probability=0.5)
        assert lowered.mapping_precedence == (0, -0.5, -10.0)
