"""The statistical guarantees of Section 5.1.

Given a path's available-bandwidth distribution ``F`` (an empirical CDF
maintained by monitoring), PGOS makes two kinds of promises about a stream
that must service ``x`` packets of size ``s`` per scheduling window ``tw``
(equivalently: sustain ``b0 = x*s/tw``):

**Lemma 1 (probabilistic guarantee).**  With probability
``P = 1 - F(b0)`` the ``x`` packets are served within the window — i.e.
the probability of insufficient throughput is bounded by ``F(b0)``.

**Lemma 2 (violation bound).**  The expected number of packets missing
their deadline in one window is bounded by::

    E[Z] <= x * F(b0) - (tw / s) * M[b0]

where ``M[b0] = E[b * 1{b <= b0}]`` is the partial mean of available
bandwidth below the requirement.  (Intuitively: when bandwidth falls short,
the shortfall in packets is ``x - b*tw/s``; averaging over the shortfall
region gives the bound.)

All bandwidths are Mbps at the API; conversions to byte rates happen here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.errors import ConfigurationError
from repro.monitoring.cdf import EmpiricalCDF, lerp_order_statistics
from repro.units import mbps_to_bytes_per_s


def required_bandwidth_mbps(x_packets: int, packet_size: int, tw: float) -> float:
    """The ``b0`` of the lemmas: rate needed to serve ``x`` packets per window."""
    if x_packets < 0:
        raise ConfigurationError(f"x_packets must be >= 0, got {x_packets}")
    if packet_size <= 0 or tw <= 0:
        raise ConfigurationError(
            f"packet_size and tw must be positive, got {packet_size}, {tw}"
        )
    return x_packets * packet_size * 8.0 / (tw * 1e6)


def probabilistic_guarantee(cdf: EmpiricalCDF, required_mbps: float) -> float:
    """Lemma 1: probability the path sustains ``required_mbps``.

    Returns ``P = 1 - F(b0)`` — the fraction of time the path's available
    bandwidth is at least the requirement.
    """
    if required_mbps < 0:
        raise ConfigurationError(
            f"required_mbps must be >= 0, got {required_mbps}"
        )
    # Strictly below b0 counts as failure; a sample exactly equal to b0
    # still satisfies the requirement, so use F(b0-) = P{b < b0}.
    return float(1.0 - cdf.evaluate_strict(required_mbps))


def probabilistic_guarantee_batch(
    cdf: EmpiricalCDF, required_mbps: np.ndarray
) -> np.ndarray:
    """Lemma 1 over many candidate rates at once.

    One vectorized ``searchsorted`` replaces one scalar call per rate;
    every element is bit-identical to
    :func:`probabilistic_guarantee` at the same rate.
    """
    rates = np.asarray(required_mbps, dtype=float)
    if rates.size and float(rates.min()) < 0:
        raise ConfigurationError(
            f"required_mbps must be >= 0, got {float(rates.min())}"
        )
    return 1.0 - np.asarray(cdf.evaluate_strict(rates))


def violation_bounds_batch(
    cdf: EmpiricalCDF,
    x_packets: np.ndarray,
    packet_size: int,
    tw: float,
) -> np.ndarray:
    """Lemma 2 over many candidate packet counts at once.

    The candidate rates ``b0`` and their CDF heights are computed with
    one vectorized pass (a single ``searchsorted`` over all candidate
    rates); the clip epilogue runs per element with the exact scalar
    operations of :func:`violation_bound`, so the batch is bit-identical
    to the scalar path — the property that keeps the greedy
    violation-bound split's decisions byte-stable.
    """
    x = np.asarray(x_packets)
    if x.size and int(x.min()) < 0:
        raise ConfigurationError(f"x_packets must be >= 0, got {int(x.min())}")
    if packet_size <= 0 or tw <= 0:
        raise ConfigurationError(
            f"packet_size and tw must be positive, got {packet_size}, {tw}"
        )
    b0 = x * packet_size * 8.0 / (tw * 1e6)
    f_b0 = np.asarray(cdf.evaluate(b0))
    partial_mean_packets = (
        mbps_to_bytes_per_s(cdf.partial_means_below(b0)) * tw / packet_size
    )
    raw = x * f_b0 - partial_mean_packets
    out = np.empty(x.shape, dtype=float)
    flat_x, flat_raw, flat_out = x.ravel(), raw.ravel(), out.ravel()
    for i in range(flat_x.size):
        xi = int(flat_x[i])
        if xi == 0:
            flat_out[i] = 0.0
        else:
            flat_out[i] = float(min(max(float(flat_raw[i]), 0.0), xi))
    return out


def expected_violation_rates_batch(
    cdf: EmpiricalCDF,
    x_packets: np.ndarray,
    packet_size: int,
    tw: float,
) -> np.ndarray:
    """Lemma 2 normalized, batched: violation-fraction bounds per count."""
    x = np.asarray(x_packets)
    bounds = violation_bounds_batch(cdf, x, packet_size, tw)
    out = np.zeros(x.shape, dtype=float)
    nz = x != 0
    out[nz] = bounds[nz] / x[nz]
    return out


def packet_guarantee(
    cdf: EmpiricalCDF, x_packets: int, packet_size: int, tw: float
) -> float:
    """Lemma 1 stated in packets: P that ``x`` packets are served in ``tw``."""
    b0 = required_bandwidth_mbps(x_packets, packet_size, tw)
    return probabilistic_guarantee(cdf, b0)


def violation_bound(
    cdf: EmpiricalCDF, x_packets: int, packet_size: int, tw: float
) -> float:
    """Lemma 2: bound on E[Z], expected deadline misses per window.

    ``E[Z] <= x * F(b0) - (tw / s) * M[b0]`` with the partial mean
    ``M[b0]`` computed from the same empirical distribution.  The bound is
    clipped at 0 (it cannot be negative) and at ``x`` (cannot miss more
    packets than exist).
    """
    if x_packets == 0:
        return 0.0
    b0 = required_bandwidth_mbps(x_packets, packet_size, tw)
    f_b0 = cdf.evaluate(b0)
    partial_mean_mbps = cdf.partial_mean_below(b0)
    # Convert the partial mean to packets per window: (bytes/s) * tw / s.
    partial_mean_packets = (
        mbps_to_bytes_per_s(partial_mean_mbps) * tw / packet_size
    )
    bound = x_packets * f_b0 - partial_mean_packets
    return float(min(max(bound, 0.0), x_packets))


def expected_violation_rate(
    cdf: EmpiricalCDF, x_packets: int, packet_size: int, tw: float
) -> float:
    """Lemma 2 normalized: bound on the *fraction* of packets missing."""
    if x_packets == 0:
        return 0.0
    return violation_bound(cdf, x_packets, packet_size, tw) / x_packets


def feasible_with_probability(
    cdf: EmpiricalCDF, required_mbps: float, probability: float
) -> bool:
    """Whether the path guarantees ``required_mbps`` with at least ``probability``."""
    if not 0.0 < probability < 1.0:
        raise ConfigurationError(
            f"probability must be in (0, 1), got {probability}"
        )
    return probabilistic_guarantee(cdf, required_mbps) >= probability


def guaranteed_rate_at(cdf: EmpiricalCDF, probability: float) -> float:
    """Largest rate the path sustains with the given probability.

    The inverse of Lemma 1: the ``(1 - P)``-quantile of the bandwidth
    distribution.  A stream requiring no more than this rate at probability
    ``P`` fits on the path by itself.
    """
    if not 0.0 < probability < 1.0:
        raise ConfigurationError(
            f"probability must be in (0, 1), got {probability}"
        )
    return cdf.percentile((1.0 - probability) * 100.0)


def _check_allocated(allocated_mbps: float) -> None:
    if allocated_mbps < 0:
        raise ConfigurationError(
            f"allocated must be >= 0, got {allocated_mbps}"
        )


def residual_guarantee(
    cdf: EmpiricalCDF, allocated_mbps: float, required_mbps: float
) -> float:
    """Lemma 1 on a path with ``allocated_mbps`` already promised.

    The probability that what the earlier promises leave,
    ``max(b - allocated, 0)`` sample-wise, sustains ``required_mbps``:
    bit-equal to :func:`probabilistic_guarantee` of
    :func:`repro.core.mapping.shifted_cdf`, without building that
    distribution.  Subtracting a constant and clipping at zero keep the
    samples ascending, so the residual samples below the requirement
    are a prefix of the path's own samples: those with
    ``max(s - allocated, 0.0) < required``, the float operation the
    shift performs on each (:func:`_residual_below` counts them).
    """
    if required_mbps < 0:
        raise ConfigurationError(
            f"required_mbps must be >= 0, got {required_mbps}"
        )
    _check_allocated(allocated_mbps)
    samples = cdf.sample_list()
    if allocated_mbps == 0:
        below = bisect_left(samples, required_mbps)
    elif required_mbps > 0:
        below = _residual_below(samples, allocated_mbps, required_mbps)
    else:
        # No residual is below zero.
        below = 0
    return 1.0 - below / len(samples)


def _residual_below(
    samples: list[float], allocated: float, required: float
) -> int:
    """How many sorted ``samples`` satisfy ``s - allocated < required``.

    For ``required > 0`` that is the key ``max(s - allocated, 0.0) <
    required``.  The predicate is monotone in ``s`` (float subtraction
    of a constant is), but it is not the rearrangement ``s < required +
    allocated``: the two round differently within a few ulps of the
    boundary.  The rearranged bisect, in C, is the first guess; the
    exact predicate then moves the index over the samples on which the
    two disagree, a whole run of equal samples per step, so a long run
    of equal boundary samples costs one more bisect, not a scan.
    """
    i = bisect_left(samples, required + allocated)
    while i and not samples[i - 1] - allocated < required:
        i = bisect_left(samples, samples[i - 1], 0, i - 1)
    n = len(samples)
    while i < n and samples[i] - allocated < required:
        i = bisect_right(samples, samples[i], i + 1)
    return i


def residual_rate_at(
    cdf: EmpiricalCDF, allocated_mbps: float, probability: float
) -> float:
    """Largest rate a path with ``allocated_mbps`` promised still sustains.

    :func:`guaranteed_rate_at` of the shifted distribution, bit for
    bit, from the two shifted order statistics the quantile
    interpolates between.
    """
    if not 0.0 < probability < 1.0:
        raise ConfigurationError(
            f"probability must be in (0, 1), got {probability}"
        )
    _check_allocated(allocated_mbps)
    samples = cdf.sample_list()
    if allocated_mbps == 0:
        at = samples.__getitem__
    else:
        def at(i: int) -> float:
            return max(samples[i] - allocated_mbps, 0.0)
    # guaranteed_rate_at asks for the percentile (1 - P) * 100, which
    # np.percentile divides by 100 again: the same two roundings here.
    return lerp_order_statistics(
        len(samples), (1.0 - probability) * 100.0 / 100.0, at
    )
