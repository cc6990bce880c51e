"""Per-path monitor: the live state PGOS consults every window.

Combines a sliding-window bandwidth CDF with RTT/loss tracking and
CDF-change detection.  The paper rebuilds its scheduling vectors "when a
new stream joins or the CDF changes dramatically" (Figure 7, line 2);
:meth:`PathMonitor.cdf_changed_significantly` quantifies *dramatically* as
a Kolmogorov–Smirnov distance between the current window's CDF and the CDF
snapshot taken at the last remap.

That distance is only computed when it could exceed the threshold.  On a
full window of ``n`` samples one new sample moves the window's CDF, and so
the distance to the fixed reference, by at most ``1/n``: a check that
measured ``d`` leaves ``(threshold - d) * n`` updates, less one count of
margin against float rounding, whose answer is already known to be
``False``.  ``docs/sim.md`` ("When the remap trigger can be skipped")
gives the argument and the points where that quiet horizon resets.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.errors import ConfigurationError
from repro.monitoring.cdf import EmpiricalCDF, SlidingWindowCDF, ks_distance
from repro.monitoring.predictors import EWMAPredictor
from repro.obs.context import NULL_OBS, Observability
from repro.obs.events import Category
from repro.series import pack_series, unpack_series

#: Relative-error buckets of the bandwidth-prediction histogram.
_PREDICTION_ERROR_BOUNDS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


class PathMonitor:
    """Online statistics for one overlay path.

    Parameters
    ----------
    name:
        Path label (``"A"``, ``"B"``, ...).
    window:
        Bandwidth-history window in samples.
    ks_threshold:
        KS distance above which the path's distribution is considered to
        have changed dramatically (triggering a PGOS remap).
    """

    def __init__(
        self,
        name: str,
        window: int = 500,
        ks_threshold: float = 0.2,
        obs: Optional[Observability] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        if not 0.0 < ks_threshold <= 1.0:
            raise ConfigurationError(
                f"ks_threshold must be in (0, 1], got {ks_threshold}"
            )
        self.name = name
        self.ks_threshold = ks_threshold
        self.bandwidth = SlidingWindowCDF(window=window, obs=obs)
        self.rtt_ms = EWMAPredictor(alpha=0.2)
        self.loss_rate = EWMAPredictor(alpha=0.2)
        self._reference_cdf: Optional[EmpiricalCDF] = None
        # Quiet horizon of the remap trigger: while the bandwidth
        # window's update count is at most this value, the KS distance
        # provably stays within ks_threshold; -1 is no horizon.  Derived
        # state, never checkpointed.
        self._quiet_until = -1
        self._obs = obs if obs is not None else NULL_OBS
        self._clock: Callable[[], float] = clock or (lambda: 0.0)
        # One-step-ahead bandwidth forecast, kept only for the
        # prediction-error metric (EWMA, same alpha as rtt/loss).
        self._bw_forecast: Optional[float] = None

    def bind_observability(
        self,
        obs: Observability,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Attach (or replace) this monitor's observability context."""
        self._obs = obs
        self.bandwidth.bind_observability(obs)
        if clock is not None:
            self._clock = clock

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def observe_bandwidth(self, mbps: float) -> None:
        """Record one available-bandwidth sample."""
        if self._obs.enabled:
            if self._bw_forecast is not None:
                # Relative error with a 1 Mbps floor so a path collapsing
                # to ~0 does not register unbounded ratios.
                error = abs(mbps - self._bw_forecast) / max(
                    self._bw_forecast, 1.0
                )
                self._obs.metrics.histogram(
                    "monitor.prediction_error", _PREDICTION_ERROR_BOUNDS
                ).observe(error)
            self._bw_forecast = (
                mbps
                if self._bw_forecast is None
                else self._bw_forecast + 0.2 * (mbps - self._bw_forecast)
            )
        self.bandwidth.update(mbps)

    def observe_bandwidth_many(self, samples: Iterable[float]) -> None:
        """Record a batch of bandwidth samples."""
        self.bandwidth.extend(samples)

    def observe_rtt(self, rtt_ms: float) -> None:
        """Record one RTT measurement (ms)."""
        if rtt_ms < 0:
            raise ConfigurationError(f"rtt must be >= 0, got {rtt_ms}")
        self.rtt_ms.update(rtt_ms)

    def observe_loss(self, loss_rate: float) -> None:
        """Record one loss-rate measurement in [0, 1]."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1], got {loss_rate}"
            )
        self.loss_rate.update(loss_rate)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether any bandwidth history exists yet."""
        return len(self.bandwidth) > 0

    def cdf(self) -> EmpiricalCDF:
        """Current bandwidth CDF snapshot."""
        return self.bandwidth.snapshot()

    # ------------------------------------------------------------------
    # remap trigger
    # ------------------------------------------------------------------
    def mark_remapped(self) -> None:
        """Snapshot the current CDF as the reference for change detection."""
        old = self._reference_cdf
        self._reference_cdf = self.cdf()
        self._quiet_until = -1
        if self._obs.enabled:
            self._obs.metrics.counter("monitor.cdf_refreshes").inc()
            self._obs.trace.emit(
                self._clock(),
                Category.MONITOR,
                "cdf_refresh",
                path=self.name,
                samples=len(self.bandwidth),
                ks_from_previous=(
                    ks_distance(self._reference_cdf, old)
                    if old is not None
                    else None
                ),
            )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the monitor's mutable state.

        Covers the bandwidth window (arrival order), the RTT/loss EWMAs,
        the reference CDF pinned at the last remap (sorted samples), and
        the forecast the prediction-error metric tracks.  Configuration
        (name, window, thresholds) is not serialized — the restoring
        monitor is constructed from the same config.
        """
        reference = (
            None
            if self._reference_cdf is None
            else pack_series(self._reference_cdf.samples)
        )
        return {
            "bandwidth": self.bandwidth.state_dict(),
            "rtt_ms": self.rtt_ms.state_dict(),
            "loss_rate": self.loss_rate.state_dict(),
            "reference_cdf": reference,
            "bw_forecast": self._bw_forecast,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.bandwidth.load_state_dict(state["bandwidth"])
        self.rtt_ms.load_state_dict(state["rtt_ms"])
        self.loss_rate.load_state_dict(state["loss_rate"])
        reference = state["reference_cdf"]
        self._reference_cdf = (
            None
            if reference is None
            else EmpiricalCDF.from_sorted(
                unpack_series(reference), copy=True, validate=False
            )
        )
        forecast = state["bw_forecast"]
        self._bw_forecast = None if forecast is None else float(forecast)
        self._quiet_until = -1

    def cdf_changed_significantly(self) -> bool:
        """Whether the distribution drifted beyond ``ks_threshold``.

        The distance is computed only when it could have crossed the
        threshold since the last computation (see the module docstring);
        otherwise the answer is the known ``False``.
        """
        if self._reference_cdf is None:
            return True  # never mapped against this path yet
        window = self.bandwidth
        if window.updates <= self._quiet_until:
            return False
        ks = ks_distance(self.cdf(), self._reference_cdf)
        shifted = ks > self.ks_threshold
        if self._obs.enabled:
            self._obs.metrics.counter("monitor.ks_evaluations").inc()
            if shifted:
                self._obs.metrics.counter("monitor.cdf_shifts").inc()
                self._obs.trace.emit(
                    self._clock(),
                    Category.MONITOR,
                    "cdf_shift",
                    path=self.name,
                    ks_distance=ks,
                    threshold=self.ks_threshold,
                )
        if not shifted and window.full:
            # In counts of 1/n, one per update; the one count of margin
            # absorbs the rounding of k/n, so a distance the float
            # comparison would see above the threshold is never skipped.
            n = window.window
            slack = int(self.ks_threshold * n - ks * n) - 1
            self._quiet_until = window.updates + max(slack, 0)
        return shifted
