"""The per-path monitor and its remap trigger."""

import json

import numpy as np
import pytest

from repro.core.guarantees import guaranteed_rate_at
from repro.errors import ConfigurationError
from repro.monitoring.monitor import PathMonitor
from repro.obs.context import Observability
from repro.series import pack_series


class TestPathMonitor:
    def test_guaranteed_bandwidth_is_quantile(self, rng):
        monitor = PathMonitor("A", window=1000)
        samples = 50 + 5 * rng.standard_normal(1000)
        monitor.observe_bandwidth_many(samples)
        assert guaranteed_rate_at(monitor.cdf(), 0.95) == pytest.approx(
            np.percentile(samples, 5)
        )

    def test_remap_trigger_before_first_mark(self):
        monitor = PathMonitor("A")
        monitor.observe_bandwidth(10.0)
        assert monitor.cdf_changed_significantly()

    def test_no_trigger_on_stable_distribution(self, rng):
        monitor = PathMonitor("A", window=500, ks_threshold=0.2)
        monitor.observe_bandwidth_many(50 + rng.standard_normal(500))
        monitor.mark_remapped()
        monitor.observe_bandwidth_many(50 + rng.standard_normal(250))
        assert not monitor.cdf_changed_significantly()

    def test_trigger_on_level_shift(self, rng):
        monitor = PathMonitor("A", window=500, ks_threshold=0.2)
        monitor.observe_bandwidth_many(50 + rng.standard_normal(500))
        monitor.mark_remapped()
        monitor.observe_bandwidth_many(30 + rng.standard_normal(400))
        assert monitor.cdf_changed_significantly()

    def test_rtt_and_loss_tracked(self):
        monitor = PathMonitor("A")
        monitor.observe_rtt(20.0)
        monitor.observe_rtt(30.0)
        assert 20.0 < monitor.rtt_ms.predict() <= 30.0
        monitor.observe_loss(0.01)
        assert monitor.loss_rate.predict() == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PathMonitor("A", ks_threshold=0.0)
        monitor = PathMonitor("A")
        with pytest.raises(ConfigurationError):
            monitor.observe_rtt(-1.0)
        with pytest.raises(ConfigurationError):
            monitor.observe_loss(2.0)
        monitor.observe_bandwidth(10.0)
        with pytest.raises(ConfigurationError):
            guaranteed_rate_at(monitor.cdf(), 1.5)


class TestRemapTriggerSkip:
    """The quiet horizon: when the KS distance is computed, and when not."""

    @staticmethod
    def quiet_monitor(rng):
        """A full, stable window just checked: its next checks may skip."""
        monitor = PathMonitor("A", window=100, ks_threshold=0.2)
        monitor.bind_observability(Observability())
        monitor.observe_bandwidth_many(50 + rng.standard_normal(100))
        monitor.mark_remapped()
        assert not monitor.cdf_changed_significantly()
        return monitor

    @staticmethod
    def evaluations(monitor) -> int:
        return monitor._obs.metrics.counter("monitor.ks_evaluations").value

    def test_checks_inside_the_horizon_skip(self, rng):
        monitor = self.quiet_monitor(rng)
        assert self.evaluations(monitor) == 1
        # Distance 0 leaves 20 counts, less one of margin: 19 updates.
        for _ in range(19):
            monitor.observe_bandwidth(50.0)
            assert not monitor.cdf_changed_significantly()
        assert self.evaluations(monitor) == 1
        monitor.observe_bandwidth(50.0)
        monitor.cdf_changed_significantly()
        assert self.evaluations(monitor) == 2

    def test_a_filling_window_evaluates_every_check(self, rng):
        monitor = PathMonitor("A", window=100, ks_threshold=0.2)
        monitor.bind_observability(Observability())
        monitor.observe_bandwidth_many(50 + rng.standard_normal(50))
        monitor.mark_remapped()
        for _ in range(5):
            monitor.observe_bandwidth(50.0)
            monitor.cdf_changed_significantly()
        assert self.evaluations(monitor) == 5

    def test_mark_remapped_forces_an_evaluation(self, rng):
        monitor = self.quiet_monitor(rng)
        monitor.mark_remapped()
        monitor.cdf_changed_significantly()
        assert self.evaluations(monitor) == 2

    def test_load_state_dict_forces_an_evaluation(self, rng):
        monitor = self.quiet_monitor(rng)
        monitor.load_state_dict(monitor.state_dict())
        monitor.cdf_changed_significantly()
        assert self.evaluations(monitor) == 2

    def test_replaced_window_forces_an_evaluation(self, rng):
        # Restoring the window alone, in place, counts as a full window
        # of updates: past every horizon, whatever the restore holds.
        monitor = self.quiet_monitor(rng)
        window = monitor.bandwidth
        window.load_state_dict(
            {"window": 100, "values": pack_series([50.0] * 5)}
        )
        assert monitor.bandwidth is window
        assert window.window_values() == [50.0] * 5
        monitor.cdf_changed_significantly()
        assert self.evaluations(monitor) == 2

    def test_state_dict_unchanged_by_the_horizon(self, rng):
        samples = 50 + rng.standard_normal(100)
        checked = PathMonitor("A", window=100)
        unchecked = PathMonitor("A", window=100)
        for monitor in (checked, unchecked):
            monitor.observe_bandwidth_many(samples)
            monitor.mark_remapped()
        checked.cdf_changed_significantly()
        assert checked.bandwidth.updates <= checked._quiet_until
        state = checked.state_dict()
        assert list(state) == [
            "bandwidth", "rtt_ms", "loss_rate", "reference_cdf", "bw_forecast"
        ]
        assert json.dumps(state) == json.dumps(unchecked.state_dict())
