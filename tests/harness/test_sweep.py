"""Cross-traffic sweep utilities."""

import pytest

from repro.errors import ConfigurationError
from repro.harness.sweep import (
    SweepPoint,
    admission_crossover,
    render_sweep,
    sweep_cross_traffic,
)


@pytest.fixture(scope="module")
def points():
    return sweep_cross_traffic(
        scales=(0.8, 1.4),
        algorithms=("MSFQ", "PGOS"),
        duration=40.0,
        warmup_intervals=100,
    )


class TestSweep:
    def test_one_point_per_scale(self, points):
        assert [p.scale for p in points] == [0.8, 1.4]

    def test_light_load_admitted(self, points):
        assert points[0].admitted
        assert points[0].attainment["PGOS"] >= 0.9

    def test_heavy_load_rejected_with_hint(self, points):
        heavy = points[1]
        assert not heavy.admitted
        assert heavy.suggested_probability is not None

    def test_attainment_degrades_with_load(self, points):
        assert (
            points[1].attainment["PGOS"] <= points[0].attainment["PGOS"]
        )

    def test_pgos_never_attains_less_than_msfq(self, points):
        for point in points:
            assert (
                point.attainment["PGOS"] >= point.attainment["MSFQ"] - 0.02
            ), point.scale

    def test_crossover(self, points):
        assert admission_crossover(points) == 1.4

    def test_crossover_none_when_all_admitted(self):
        ok = [
            SweepPoint(scale=0.5, admitted=True, suggested_probability=None)
        ]
        assert admission_crossover(ok) is None

    def test_render(self, points):
        text = render_sweep(points)
        assert "x-traffic scale" in text
        assert "PGOS attainment" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sweep_cross_traffic(scales=())
        with pytest.raises(ConfigurationError):
            sweep_cross_traffic(scales=(-1.0,), duration=10.0)


class TestNoiseSweep:
    def test_noise_tolerated_smoothing_not(self):
        from repro.harness.sweep import sweep_measurement_noise
        from repro.monitoring.probe import ProbingEstimator

        points = sweep_measurement_noise(
            [
                ("perfect", None),
                ("noisy", ProbingEstimator(noise_cv=0.15)),
                (
                    "smoothed",
                    ProbingEstimator(noise_cv=0.0, smoothing_intervals=100),
                ),
            ],
            duration=90.0,
            warmup_intervals=200,
        )
        perfect, noisy, smoothed = (p.attainment for p in points)
        # Multiplicative noise barely matters (ordering preserved)...
        assert perfect >= 0.95
        assert noisy >= perfect - 0.05
        # ...but dip-blind smoothing misleads the percentile placement.
        assert smoothed < perfect - 0.02

    def test_empty_levels_rejected(self):
        from repro.harness.sweep import sweep_measurement_noise

        with pytest.raises(ConfigurationError):
            sweep_measurement_noise([])
