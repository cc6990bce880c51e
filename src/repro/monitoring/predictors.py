"""Bandwidth predictors.

The paper contrasts two prediction philosophies:

* **average predictors** (MA / SMA / EWMA, and AR-family models) predict
  the *value* of bandwidth in the next interval — and err by ~20 % because
  short-timescale available bandwidth is mostly IID noise;
* the **percentile predictor** predicts a *level the bandwidth will exceed
  with given probability* — a question the near-IID structure answers well
  (< 4 % failure in Figure 4).

All predictors share a tiny online API (``update`` / ``predict``) plus a
vectorized ``predict_series`` used by the Figure-4 experiment to score
thousands of predictions at once.
"""

from __future__ import annotations

import bisect
from collections import deque

import numpy as np

from repro.errors import ConfigurationError
from repro.monitoring.cdf import lerp_order_statistics


class Predictor:
    """Online one-step-ahead predictor interface."""

    #: Human-readable name used in reports.
    name: str = "predictor"

    def update(self, sample: float) -> None:
        """Observe one bandwidth sample."""
        raise NotImplementedError

    def predict(self) -> float:
        """Predict the next sample (or guarantee level, for percentile)."""
        raise NotImplementedError

    @property
    def ready(self) -> bool:
        """Whether enough history has been observed to predict."""
        raise NotImplementedError

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        """One-step-ahead predictions for ``series``.

        ``result[i]`` is the prediction for ``series[i]`` using samples
        ``series[:i]``; entries before the predictor is ready are NaN.
        Subclasses override this with vectorized implementations.
        """
        x = np.asarray(series, dtype=float)
        out = np.full(x.size, np.nan)
        for i in range(x.size):
            if self.ready:
                out[i] = self.predict()
            self.update(x[i])
        return out


class MovingAveragePredictor(Predictor):
    """MA(w): mean of the last ``window`` samples."""

    def __init__(self, window: int = 10):
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        self.name = f"MA({window})"
        self._buffer: deque[float] = deque(maxlen=window)
        self._sum = 0.0

    def update(self, sample: float) -> None:
        if len(self._buffer) == self.window:
            self._sum -= self._buffer[0]
        self._buffer.append(float(sample))
        self._sum += float(sample)

    @property
    def ready(self) -> bool:
        return len(self._buffer) == self.window

    def predict(self) -> float:
        if not self._buffer:
            raise ConfigurationError("no samples observed yet")
        return self._sum / len(self._buffer)

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        x = np.asarray(series, dtype=float)
        out = np.full(x.size, np.nan)
        if x.size > self.window:
            csum = np.concatenate([[0.0], np.cumsum(x)])
            means = (csum[self.window :] - csum[: -self.window]) / self.window
            out[self.window :] = means[:-1]
        # Leave the state update() would: the same running-sum float ops
        # in the same order, with the sample leaving at position j read
        # from the concatenation of the old buffer and the series.
        samples = x.tolist()
        seq = list(self._buffer) + samples
        total = self._sum
        for j in range(len(self._buffer), len(seq)):
            if j >= self.window:
                total -= seq[j - self.window]
            total += seq[j]
        self._sum = total
        self._buffer.extend(samples)
        return out


class EWMAPredictor(Predictor):
    """Exponentially weighted moving average with smoothing ``alpha``."""

    def __init__(self, alpha: float = 0.25):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.name = f"EWMA({alpha})"
        self._value: float | None = None

    def update(self, sample: float) -> None:
        if self._value is None:
            self._value = float(sample)
        else:
            self._value = self.alpha * float(sample) + (1 - self.alpha) * self._value

    @property
    def ready(self) -> bool:
        return self._value is not None

    def predict(self) -> float:
        if self._value is None:
            raise ConfigurationError("no samples observed yet")
        return self._value

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        x = np.asarray(series, dtype=float)
        out = np.full(x.size, np.nan)
        value = self._value
        for i in range(x.size):
            if value is not None:
                out[i] = value
            value = x[i] if value is None else self.alpha * x[i] + (1 - self.alpha) * value
        self._value = value
        return out

    def state_dict(self) -> dict:
        """JSON-serializable snapshot (the EWMA value is the only state)."""
        return {"value": self._value}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        value = state["value"]
        self._value = None if value is None else float(value)


class SlidingMedianPredictor(Predictor):
    """SMA-style robust predictor: median of the last ``window`` samples.

    The paper's "SMA" — a smoothed/robust average variant; the median makes
    it resistant to heavy-tail bursts but it still predicts a *central*
    value and therefore shares the ~20 % relative error of mean predictors.
    """

    def __init__(self, window: int = 10):
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self.window = window
        self.name = f"SMA({window})"
        self._buffer: deque[float] = deque(maxlen=window)

    def update(self, sample: float) -> None:
        self._buffer.append(float(sample))

    @property
    def ready(self) -> bool:
        return len(self._buffer) == self.window

    def predict(self) -> float:
        if not self._buffer:
            raise ConfigurationError("no samples observed yet")
        return float(np.median(self._buffer))

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        x = np.asarray(series, dtype=float)
        out = np.full(x.size, np.nan)
        if x.size > self.window:
            windows = np.lib.stride_tricks.sliding_window_view(x, self.window)
            medians = np.median(windows, axis=1)
            out[self.window :] = medians[:-1]
        self._buffer.extend(x.tolist())
        return out


class AR1Predictor(Predictor):
    """First-order autoregressive predictor fitted over a sliding window.

    Predicts ``x_{t+1} = mean + phi * (x_t - mean)`` with ``phi`` the lag-1
    autocorrelation of the window.  Representative of the AR/ARMA family
    the paper cites ([34]): when the signal is mostly IID, ``phi`` is close
    to 0 and AR(1) degenerates to the window mean.
    """

    def __init__(self, window: int = 50):
        if window < 4:
            raise ConfigurationError(f"window must be >= 4, got {window}")
        self.window = window
        self.name = f"AR1({window})"
        self._buffer: deque[float] = deque(maxlen=window)

    def update(self, sample: float) -> None:
        self._buffer.append(float(sample))

    @property
    def ready(self) -> bool:
        return len(self._buffer) == self.window

    def predict(self) -> float:
        if len(self._buffer) < 2:
            raise ConfigurationError("need >= 2 samples")
        x = np.asarray(self._buffer)
        mean = x.mean()
        centered = x - mean
        denom = float(np.dot(centered, centered))
        phi = 0.0 if denom == 0 else float(
            np.dot(centered[:-1], centered[1:]) / denom
        )
        phi = float(np.clip(phi, -0.99, 0.99))
        return float(mean + phi * (x[-1] - mean))


class PercentilePredictor(Predictor):
    """The paper's statistical predictor.

    Maintains the last ``window`` samples and predicts the ``q``-th
    percentile of their distribution — a bandwidth level the path will
    exceed with probability roughly ``1 - q/100`` in the near future.  The
    *claim* being made is different in kind from the average predictors':
    "bandwidth will be at least X" rather than "bandwidth will be X".
    """

    def __init__(self, q: float = 10.0, window: int = 500):
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"q must be in [0, 100], got {q}")
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        self.q = q
        self.window = window
        self.name = f"P{q:g}({window})"
        self._buffer: deque[float] = deque(maxlen=window)

    def update(self, sample: float) -> None:
        self._buffer.append(float(sample))

    @property
    def ready(self) -> bool:
        return len(self._buffer) == self.window

    def predict(self) -> float:
        if not self._buffer:
            raise ConfigurationError("no samples observed yet")
        return float(np.percentile(self._buffer, self.q))

    def predict_series(self, series: np.ndarray) -> np.ndarray:
        """The ``q``-th percentile of each trailing ``window`` of ``series``.

        ``result[i]`` for ``i >= window`` is
        ``np.percentile(series[i - window:i], q)``, bit for bit; earlier
        entries are NaN.  The window is one sorted list rolled across
        the series (``bisect`` out the leaving sample, ``insort`` the
        entering one) and read through
        :func:`~repro.monitoring.cdf.lerp_order_statistics`,
        numpy's linear interpolation on the two order statistics: the
        values are sample values either way, so the result is exact in
        O(n + window) memory, where a ``sliding_window_view`` percentile
        would partition a dense ``n x window`` copy.  A plain list beats
        :class:`~repro.monitoring.cdf.SlidingWindowCDF` here
        by about 6x, whose per-update numpy calls cost more than the
        list's memmove at these window sizes.

        Raises :class:`~repro.errors.ConfigurationError` naming the first
        non-finite sample: a NaN has no place in a sorted window.
        """
        x = np.asarray(series, dtype=float)
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ConfigurationError(
                f"series has a non-finite sample at index {int(bad[0])}"
            )
        samples = x.tolist()
        out = np.full(x.size, np.nan)
        w = self.window
        if x.size > w:
            p = self.q / 100.0
            ordered = sorted(samples[:w])
            at = ordered.__getitem__
            levels = [lerp_order_statistics(w, p, at)]
            for leaving, entering in zip(samples, samples[w:-1]):
                del ordered[bisect.bisect_left(ordered, leaving)]
                bisect.insort(ordered, entering)
                levels.append(lerp_order_statistics(w, p, at))
            out[w:] = levels
        self._buffer.extend(samples)
        return out


def default_average_predictors() -> list[Predictor]:
    """The average-predictor lineup of Figure 4: MA, EWMA, and SMA."""
    return [
        MovingAveragePredictor(window=10),
        EWMAPredictor(alpha=0.25),
        SlidingMedianPredictor(window=10),
    ]
