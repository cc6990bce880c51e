"""Online network monitoring and statistical analysis.

The paper's Statistical Monitoring component tracks the *distribution* of
each overlay path's available bandwidth (not just its average) and feeds it
to the PGOS routing/scheduling component.  This package provides:

* :mod:`repro.monitoring.cdf` — the sliding window the scheduler feeds,
  kept sorted under O(log W) insert/evict, and the immutable empirical
  CDF its snapshots freeze, bit-identical to one built from scratch;
* :mod:`repro.monitoring.predictors` — the average-bandwidth predictors the
  paper compares against (MA, SMA, EWMA, AR(1)) and the percentile
  predictor it proposes;
* :mod:`repro.monitoring.errors` — the two error metrics of Figure 4;
* :mod:`repro.monitoring.monitor` — the per-path monitor combining all of
  the above with CDF-change detection.
"""

from repro.monitoring.cdf import EmpiricalCDF, SlidingWindowCDF, ks_distance
from repro.monitoring.errors import (
    mean_relative_error,
    percentile_prediction_failure_rate,
    prediction_error_series,
)
from repro.monitoring.monitor import PathMonitor
from repro.monitoring.predictors import (
    AR1Predictor,
    EWMAPredictor,
    MovingAveragePredictor,
    PercentilePredictor,
    Predictor,
    SlidingMedianPredictor,
)

__all__ = [
    "EmpiricalCDF",
    "SlidingWindowCDF",
    "ks_distance",
    "Predictor",
    "MovingAveragePredictor",
    "EWMAPredictor",
    "SlidingMedianPredictor",
    "AR1Predictor",
    "PercentilePredictor",
    "mean_relative_error",
    "percentile_prediction_failure_rate",
    "prediction_error_series",
    "PathMonitor",
]
