"""Prediction-error metrics — the two y-axes of Figure 4.

* ``mean_relative_error``: the score for average predictors,
  ``|predicted - actual| / actual`` averaged over all predictions.
* ``percentile_prediction_failure_rate``: the score for the statistical
  predictor.  Following Section 4: compute the distribution of the last
  ``N`` samples, read its ``q``-th percentile ``X``, and test whether the
  next ``n`` samples all exceed ``X``; the failure rate is the fraction of
  positions where they do not.  The thresholds ``X`` come from
  :meth:`~repro.monitoring.predictors.PercentilePredictor.predict_series`,
  one sorted window rolled across the series: bit-identical to
  ``np.percentile`` of every history window, in O(n + history) memory.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.monitoring.predictors import PercentilePredictor, Predictor


def prediction_error_series(
    predictor: Predictor, series: np.ndarray
) -> np.ndarray:
    """Relative error of one-step predictions over ``series``.

    Positions where the predictor is not ready yet, or where the actual
    value is zero (relative error undefined), are dropped.
    """
    x = np.asarray(series, dtype=float)
    predicted = predictor.predict_series(x)
    mask = ~np.isnan(predicted) & (x != 0)
    if not np.any(mask):
        raise ConfigurationError(
            "series too short for this predictor (no scored predictions)"
        )
    return np.abs(predicted[mask] - x[mask]) / np.abs(x[mask])


def mean_relative_error(predictor: Predictor, series: np.ndarray) -> float:
    """Average relative one-step prediction error of ``predictor``."""
    return float(prediction_error_series(predictor, series).mean())


def error_exceedance_fraction(
    predictor: Predictor, series: np.ndarray, threshold: float
) -> float:
    """Fraction of predictions whose relative error exceeds ``threshold``.

    Reproduces the paper's citation of [34]: "prediction errors larger than
    20% for more than 40% of the predicted values".
    """
    errors = prediction_error_series(predictor, series)
    return float(np.mean(errors > threshold))


def percentile_prediction_failure_rate(
    series: np.ndarray,
    q: float = 10.0,
    history: int = 500,
    horizon: int = 5,
    stride: int = 1,
    mode: str = "mean",
) -> float:
    """Failure rate of the percentile prediction procedure of Section 4.

    At each position ``t`` (stepping by ``stride``), take the ``history``
    samples before ``t``, read their ``q``-th percentile ``X``, and test
    the next ``horizon`` samples against ``X``.

    The prediction being scored is the one PGOS actually uses (Lemma 1):
    *"the path will sustain at least X over the near future"* — i.e. the
    aggregate bandwidth over the scheduling window, not each sub-interval
    sliver.  ``mode`` selects the test:

    * ``"mean"`` (default, the guarantee semantics): failure when the
      *average* of the next ``horizon`` samples falls below ``X``;
    * ``"min"`` (strict): failure when *any* of the next ``horizon``
      samples falls below ``X``.  For a stationary process this variant is
      floor-bounded at ``q`` % per sample, so it mainly serves as the
      pessimistic comparison.

    Parameters mirror the paper: ``history`` ∈ {500, 1000}, ``horizon``
    (the paper's *n*) ∈ [5, 10], ``q`` = 10 for a "90 % of the time"
    guarantee.  A non-finite sample anywhere in ``series`` raises
    :class:`~repro.errors.ConfigurationError` naming its index (it would
    otherwise turn every comparison it touches into a silent success).
    """
    x = np.asarray(series, dtype=float)
    if history < 2:
        raise ConfigurationError(f"history must be >= 2, got {history}")
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    if mode not in ("mean", "min"):
        raise ConfigurationError(f"mode must be 'mean' or 'min', got {mode!r}")
    last_start = x.size - history - horizon
    if last_start < 0:
        raise ConfigurationError(
            f"series of {x.size} samples too short for history={history} "
            f"and horizon={horizon}"
        )

    starts = np.arange(0, last_start + 1, stride)
    predictor = PercentilePredictor(q=q, window=history)
    thresholds = predictor.predict_series(x)[history + starts]
    future = np.lib.stride_tricks.sliding_window_view(x, horizon)
    if mode == "mean":
        outcome = future[starts + history].mean(axis=1)
    else:
        outcome = future[starts + history].min(axis=1)
    failures = outcome < thresholds
    return float(np.mean(failures))
