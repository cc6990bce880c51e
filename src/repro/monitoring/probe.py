"""Active-probing measurement model.

The paper's monitoring measures available bandwidth with the
pathload-family techniques of Jain & Dovrolis [19, 20]; measurements are
*estimates*, not truth.  The fluid experiments feed schedulers the true
per-interval availability (a perfect probe); this module supplies the
imperfect version so the sensitivity of PGOS's guarantees to measurement
quality can be studied:

* multiplicative noise with coefficient of variation ``noise_cv``
  (probing error scales with the rate being measured);
* a systematic ``bias`` factor (probing tends to underestimate under
  bursty cross traffic);
* quantization to the probe's rate resolution (pathload reports a rate
  *range*; we model its grid).

The ``ablations`` figure (``python -m repro.harness ablations``) and the
measurement-noise sweep show the attainment degrading gracefully as
probes get worse — and that the percentile predictor tolerates far more
measurement noise than the mean predictor before its placements go
wrong.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.random import RandomStreams


class ProbingEstimator:
    """Turns true availability series into probe-estimated ones.

    Parameters
    ----------
    noise_cv:
        Coefficient of variation of the multiplicative estimation noise
        (0 = perfect probe; Jain & Dovrolis report ~0.05-0.15 in
        practice).
    bias:
        Multiplicative systematic error (0.9 = 10 % underestimation).
    resolution_mbps:
        Estimates are quantized to this grid (0 disables quantization).
    smoothing_intervals:
        Probes integrate over this many measurement intervals (moving
        average).  This is the error mode that actually misleads
        percentile-based placement: smoothing smears short bandwidth dips
        away, *overestimating the lower quantiles of noisy paths* while
        barely touching steady ones — multiplicative noise and bias, by
        contrast, preserve the relative ordering of path distributions.
    """

    def __init__(
        self,
        noise_cv: float = 0.1,
        bias: float = 1.0,
        resolution_mbps: float = 0.0,
        smoothing_intervals: int = 1,
    ):
        if noise_cv < 0:
            raise ConfigurationError(f"noise_cv must be >= 0, got {noise_cv}")
        if bias <= 0:
            raise ConfigurationError(f"bias must be > 0, got {bias}")
        if resolution_mbps < 0:
            raise ConfigurationError(
                f"resolution must be >= 0, got {resolution_mbps}"
            )
        if smoothing_intervals < 1:
            raise ConfigurationError(
                f"smoothing_intervals must be >= 1, got {smoothing_intervals}"
            )
        self.noise_cv = noise_cv
        self.bias = bias
        self.resolution_mbps = resolution_mbps
        self.smoothing_intervals = smoothing_intervals

    def estimate_series(
        self, true_mbps: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Probe estimates for a whole availability series."""
        x = np.asarray(true_mbps, dtype=float)
        if self.smoothing_intervals > 1 and x.size >= self.smoothing_intervals:
            kernel = np.ones(self.smoothing_intervals) / self.smoothing_intervals
            # Causal moving average with edge padding: the probe reports
            # the mean of the last few intervals.
            padded = np.concatenate(
                [np.full(self.smoothing_intervals - 1, x[0]), x]
            )
            x = np.convolve(padded, kernel, mode="valid")
        estimates = x * self.bias
        if self.noise_cv > 0:
            estimates = estimates * (
                1.0 + self.noise_cv * rng.standard_normal(x.size)
            )
        estimates = np.clip(estimates, 0.0, None)
        if self.resolution_mbps > 0:
            estimates = (
                np.round(estimates / self.resolution_mbps)
                * self.resolution_mbps
            )
        return estimates

    def perturb_realization(
        self, available: dict[str, np.ndarray], seed: int
    ) -> dict[str, np.ndarray]:
        """Probe-estimate every path of a realization (deterministic)."""
        streams = RandomStreams(seed)
        return {
            path: self.estimate_series(
                series, streams.fresh(f"probe/{path}")
            )
            for path, series in available.items()
        }
