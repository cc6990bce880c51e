"""Utility-based resource mapping (Section 5.2.2).

Finds ``Tp_i^j`` — how many packets of stream *i* to deliver via path *j*
per scheduling window — such that each stream's guarantee is met:

1. Guaranteed streams are mapped in precedence order (highest required
   probability first).  Each first tries a *single* path (streams with
   tight requirements suffer from reordering when split); only when no
   single path suffices is the stream divided across paths.
2. Splitting uses a union bound: a stream split into *k* parts, each met
   with probability ``P_part = 1 - (1 - P) / k``, is met overall with
   probability at least ``P``.
3. Violation-bound streams (``max_violation_rate``) are mapped by Lemma 2:
   single path if its expected violation rate is within bound, otherwise a
   greedy packet-chunk split minimizing the combined expected violations.
4. Elastic streams divide the *remaining* mean bandwidth of all paths
   proportionally to their weights (they ride at lower dispatch priority,
   so they never endanger the guarantees above).
5. If a guaranteed stream fits nowhere, :class:`repro.errors.AdmissionError`
   is raised — the paper's upcall to the application.

Path capacity already promised to earlier (more important) streams is
accounted for by *shifting* the path's bandwidth distribution: if ``r``
Mbps are already allocated, the residual distribution is
``max(b - r, 0)`` sample-wise.

Steps 1-3 are a fold over the streams in precedence order, each placed
against what the ones before it left; :class:`PlacementFold` is that
fold as an object a caller may keep, so that the next solve over the
same paths places only the streams behind the first difference.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import attrgetter, is_, is_not
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import AdmissionError, ConfigurationError
from repro.core.guarantees import (
    expected_violation_rates_batch,
    probabilistic_guarantee_batch,
    residual_guarantee,
    residual_rate_at,
)
from repro.core.spec import FIRST_VIOLATION_BOUND, StreamSpec
from repro.core.vectors import Schedule, build_schedule
from repro.monitoring.cdf import EmpiricalCDF
from repro.units import packets_per_window


@dataclass(frozen=True)
class PathQoSEstimate:
    """Monitored RTT / loss levels used for path eligibility.

    The values are the levels the path stays *under* with the monitoring
    probability (e.g. the 95th percentile of observed RTT), matching the
    paper's per-metric probabilistic guarantees.  ``None`` means the
    metric is not being monitored on this path and does not constrain
    placement.
    """

    rtt_ms: float | None = None
    loss_rate: float | None = None


def eligible_paths(
    spec: StreamSpec,
    path_order: Sequence[str],
    qos: Mapping[str, PathQoSEstimate] | None,
) -> Sequence[str]:
    """Paths whose monitored RTT/loss satisfy the stream's ceilings.

    ``path_order`` itself when nothing constrains the stream: every
    caller only reads the result.
    """
    if qos is None or (spec.max_rtt_ms is None and spec.max_loss_rate is None):
        return path_order
    out = []
    for p in path_order:
        estimate = qos.get(p)
        if estimate is None:
            out.append(p)
            continue
        if (
            spec.max_rtt_ms is not None
            and estimate.rtt_ms is not None
            and estimate.rtt_ms > spec.max_rtt_ms
        ):
            continue
        if (
            spec.max_loss_rate is not None
            and estimate.loss_rate is not None
            and estimate.loss_rate > spec.max_loss_rate
        ):
            continue
        out.append(p)
    return out


def shifted_cdf(cdf: EmpiricalCDF, allocated_mbps: float) -> EmpiricalCDF:
    """Residual bandwidth distribution after ``allocated_mbps`` is promised."""
    if allocated_mbps < 0:
        raise ConfigurationError(
            f"allocated must be >= 0, got {allocated_mbps}"
        )
    if allocated_mbps == 0:
        return cdf
    # Subtracting a constant and clipping at zero preserve sortedness, so
    # the residual CDF is built without re-sorting (the mapping step calls
    # this once per (stream, path) and used to pay O(W log W) each time).
    # ``np.maximum`` is what ``np.clip(x, 0.0, None)`` calls, without its
    # Python-level dispatch.
    return EmpiricalCDF.from_sorted(
        np.maximum(cdf.samples - allocated_mbps, 0.0),
        copy=False,
        validate=False,
    )


def largest_remainder_split(total: int, fractions: Sequence[float]) -> list[int]:
    """Split ``total`` items into integer parts proportional to ``fractions``.

    Largest-remainder (Hamilton) apportionment: parts sum exactly to
    ``total`` and differ from exact proportionality by < 1.
    """
    if total < 0:
        raise ConfigurationError(f"total must be >= 0, got {total}")
    weights = np.asarray(fractions, dtype=float)
    if weights.size == 0:
        raise ConfigurationError("fractions must be non-empty")
    if np.any(weights < 0):
        raise ConfigurationError(f"fractions must be >= 0: {fractions}")
    s = weights.sum()
    if s == 0:
        # Degenerate: all weight on the first part.
        parts = [0] * weights.size
        parts[0] = total
        return parts
    exact = weights / s * total
    floors = np.floor(exact).astype(int)
    shortfall = total - int(floors.sum())
    remainders = exact - floors
    order = np.argsort(-remainders, kind="stable")
    for i in order[:shortfall]:
        floors[i] += 1
    return floors.tolist()


def _packets_from_rates(
    specs: Sequence[StreamSpec],
    rates: Mapping[str, Mapping[str, float]],
    tw: float,
) -> dict[str, dict[str, int]]:
    """Convert mapped rates to integer packets per window (``Tp_i^j``).

    Largest-remainder apportionment of each stream's window quota over
    its paths.  A stream on one path takes the whole quota — exactly
    what the general split returns for a single positive share — so the
    common single-path case never builds an array, and streams drawn
    from one catalog template carry the same quota over the same share
    vector, so each distinct ``(quota, shares)`` is apportioned once.
    """
    packets: dict[str, dict[str, int]] = {}
    by_name = {s.name: s for s in specs}
    apportioned: dict[tuple, list[int]] = {}
    for name, shares in rates.items():
        total_rate = sum(shares.values())
        if total_rate <= 0:
            packets[name] = {}
            continue
        x_total = packets_per_window(total_rate, by_name[name].packet_size, tw)
        if len(shares) == 1:
            counts = [x_total]
        else:
            key = (x_total, *shares.values())
            counts = apportioned.get(key)
            if counts is None:
                counts = apportioned[key] = largest_remainder_split(
                    x_total, key[1:]
                )
        packets[name] = {p: c for p, c in zip(shares, counts) if c > 0}
    return packets


class ResourceMapping:
    """The output of the mapping step.

    Attributes
    ----------
    packets:
        ``Tp_i^j``: stream name -> path name -> packets per window.
    rates_mbps:
        The same shares expressed as rates.  Never mutated once the
        mapping exists: a solve's packet table is built from it.
    achieved_probability:
        Per guaranteed stream, the probability with which the mapping
        meets its requirement (Lemma 1, union-bounded when split).
    achieved_violation_rate:
        Per violation-bound stream, the bound on the expected fraction of
        packets missing deadlines (Lemma 2).
    tw:
        Scheduling-window length used for packet conversion.

    A mapping holds either its packet table or the specs it was solved
    for, from which the table is built once, the first time ``packets``
    is read: only the packet path's V_P / V_S compile and
    :meth:`paths_of` read it, and interval-mode delivery never does
    (docs/sim.md, "What a solve hands to delivery").  A solve passes
    ``specs``, and so does a checkpoint restore; only a table that cannot
    be re-derived from its rates (an even split) is passed as
    ``packets``, and only such a table is what a snapshot must carry
    (:attr:`explicit_packets`).

    A :func:`compute_mapping` solve hands over :attr:`placements` (a
    :class:`SolvedPlacements`) instead of rates, and derives
    ``rates_mbps`` — each placed stream's shares, then the elastic
    split of what they left — from it on first read: an offer nobody
    installs never builds them, and interval-mode delivery reads the
    placements, not the table (docs/sim.md, "What a solve hands to
    delivery").  Any other mapping has ``placements`` ``None``.
    """

    __slots__ = (
        "achieved_probability",
        "achieved_violation_rate",
        "tw",
        "placements",
        "_rates",
        "_packets",
        "_specs",
    )

    def __init__(
        self,
        rates_mbps: Optional[dict[str, dict[str, float]]],
        achieved_probability: Optional[dict[str, float]] = None,
        achieved_violation_rate: Optional[dict[str, float]] = None,
        tw: float = 1.0,
        *,
        packets: Optional[dict[str, dict[str, int]]] = None,
        specs: Optional[Sequence[StreamSpec]] = None,
    ):
        if (packets is None) == (specs is None):
            raise ConfigurationError(
                "a mapping takes its packet table or the specs to build "
                "it from, exactly one of the two"
            )
        self._rates = rates_mbps
        #: A solve's hand-over; ``None`` for a mapping given its rates.
        self.placements: Optional[SolvedPlacements] = None
        self.achieved_probability = (
            {} if achieved_probability is None else achieved_probability
        )
        self.achieved_violation_rate = (
            {} if achieved_violation_rate is None else achieved_violation_rate
        )
        self.tw = tw
        self._packets = packets
        # A copy: the caller's list (a scheduler's streams) moves on.
        self._specs = None if specs is None else tuple(specs)

    @property
    def rates_mbps(self) -> dict[str, dict[str, float]]:
        """Stream -> path -> Mbps; a solve's derived on first read."""
        if self._rates is None:
            self._rates = self.placements.rates()
        return self._rates

    @property
    def packets(self) -> dict[str, dict[str, int]]:
        """``Tp_i^j``, built from the solve's rates on first read."""
        if self._packets is None:
            self._packets = _packets_from_rates(
                self._specs, self.rates_mbps, self.tw
            )
        return self._packets

    @property
    def explicit_packets(self) -> Optional[dict[str, dict[str, int]]]:
        """The packet table if it was handed over rather than built from
        the rates (an even split), else ``None``: the one table a
        snapshot must write, since no restore can re-derive it."""
        return self._packets if self._specs is None else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceMapping):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in (
                "packets",
                "rates_mbps",
                "achieved_probability",
                "achieved_violation_rate",
                "tw",
            )
        )

    __hash__ = None  # equal by (mutable) contents

    def paths_of(self, stream: str) -> list[str]:
        """Paths carrying a non-null sub-stream of ``stream``."""
        return [p for p, c in self.packets.get(stream, {}).items() if c > 0]

    def is_split(self, stream: str) -> bool:
        """Whether the stream was divided across multiple paths."""
        return len(self.paths_of(stream)) > 1

    def rate(self, stream: str, path: str) -> float:
        """Mbps of ``stream`` mapped onto ``path``."""
        return self.rates_mbps.get(stream, {}).get(path, 0.0)

    def total_rate(self, stream: str) -> float:
        """Total mapped rate of ``stream`` across all paths."""
        return sum(self.rates_mbps.get(stream, {}).values())

    @property
    def guaranteed_streams(self) -> set[str]:
        """Streams carrying a probabilistic or violation-bound guarantee."""
        return set(self.achieved_probability) | set(self.achieved_violation_rate)

    def compile(
        self,
        stream_order: Sequence[str] | None = None,
        path_order: Sequence[str] | None = None,
        include_best_effort: bool = False,
    ) -> Schedule:
        """Compile into V_P / V_S scheduling vectors.

        By default only *guaranteed* streams become scheduled packets —
        best-effort (purely elastic) traffic is Table 1's "pkts not
        scheduled" and is dispatched by rule 3, so it never appears in
        V_S.  Pass ``include_best_effort=True`` to compile everything
        (used by analyses that want the full fluid plan as vectors).
        """
        packets = self.packets
        if not include_best_effort:
            keep = self.guaranteed_streams
            packets = {s: p for s, p in packets.items() if s in keep}
        return build_schedule(
            packets, self.tw, stream_order=stream_order, path_order=path_order
        )


class _ResidualMemo:
    """Residual-capacity answers against one set of CDF snapshots.

    ``allocated[p]`` changes only when a stream is placed on ``p``:
    every stream mapped in between asks the identical question of the
    identical residual distribution, and catalog workloads draw their
    required rates from a handful of templates.  Each answer is a
    scalar query on the path's own samples
    (:func:`repro.core.guarantees.residual_guarantee`), kept under the
    exact floats it was asked with — pure memoization, so placements
    cannot drift by a bit.
    """

    __slots__ = ("cdfs", "paths", "unplaced", "_guarantees", "_rates", "_means")

    def __init__(self, cdfs: Mapping[str, EmpiricalCDF]):
        self.cdfs = cdfs
        #: The path order, and the allocation before any placement;
        #: read only, by every solve on these snapshots.
        self.paths = list(cdfs)
        self.unplaced = dict.fromkeys(self.paths, 0.0)
        #: (path, allocated, required) -> achieved P
        self._guarantees: dict[tuple[str, float, float], float] = {}
        #: (path, allocated, probability) -> sustainable rate
        self._rates: dict[tuple[str, float, float], float] = {}
        #: (path, allocated) -> mean of what is left
        self._means: dict[tuple[str, float], float] = {}

    def guarantee(
        self, path: str, allocated: float, required: float
    ) -> float:
        """P that ``path`` with ``allocated`` promised sustains ``required``."""
        key = (path, allocated, required)
        achieved = self._guarantees.get(key)
        if achieved is None:
            achieved = self._guarantees[key] = residual_guarantee(
                self.cdfs[path], allocated, required
            )
        return achieved

    def rate_at(
        self, path: str, allocated: float, probability: float
    ) -> float:
        """Rate ``path`` with ``allocated`` promised sustains at ``probability``."""
        key = (path, allocated, probability)
        rate = self._rates.get(key)
        if rate is None:
            rate = self._rates[key] = residual_rate_at(
                self.cdfs[path], allocated, probability
            )
        return rate

    def leftover_mean(self, path: str, allocated: float) -> float:
        """Mean bandwidth ``path`` has left beyond ``allocated``."""
        key = (path, allocated)
        mean = self._means.get(key)
        if mean is None:
            samples = self.cdfs[path].samples
            if allocated:
                # shifted_cdf's residual samples, without the CDF object.
                samples = np.maximum(samples - allocated, 0.0)
            # ``EmpiricalCDF.mean``: ndarray.mean is this sum over the
            # count, bit for bit.
            mean = self._means[key] = max(
                float(np.add.reduce(samples)) / samples.size, 0.0
            )
        return mean


def _map_probabilistic(
    spec: StreamSpec,
    allocated: Mapping[str, float],
    path_order: Sequence[str],
    memo: _ResidualMemo,
) -> tuple[Optional[dict[str, float]], float]:
    """Map one guaranteed stream; returns (rate per path, achieved P),
    the rates ``None`` when no single path or split meets it."""
    required = spec.required_mbps
    target_p = spec.probability
    # --- single-path attempt -------------------------------------------
    # Strongest guarantee wins; path_order breaks exact ties.
    best_path, best_achieved = None, target_p
    known = memo._guarantees
    for p in path_order:
        a = allocated[p]
        achieved = known.get((p, a, required))
        if achieved is None:
            achieved = memo.guarantee(p, a, required)
        if achieved > best_achieved or (
            best_path is None and achieved == best_achieved
        ):
            best_path, best_achieved = p, achieved
    if best_path is not None:
        return {best_path: required}, best_achieved
    # --- split across k paths (union bound) ----------------------------
    k = len(path_order)
    if k > 1:
        p_part = 1.0 - (1.0 - target_p) / k
        capacities = {
            p: max(memo.rate_at(p, allocated[p], p_part), 0.0)
            for p in path_order
        }
        if sum(capacities.values()) >= required:
            shares: dict[str, float] = {}
            remaining = required
            # Greedy: drain the strongest residual first so the number of
            # non-null sub-streams stays minimal (less reordering).
            for p in sorted(
                path_order, key=lambda p: capacities[p], reverse=True
            ):
                if remaining <= 1e-12:
                    break
                take = min(capacities[p], remaining)
                if take > 1e-12:
                    shares[p] = take
                    remaining -= take
            misses = 0.0
            for p, share in shares.items():
                misses += 1.0 - memo.guarantee(p, allocated[p], share)
            achieved = max(0.0, 1.0 - misses)
            if achieved >= target_p:
                return shares, achieved
    return None, 0.0


def _map_violation_bound(
    spec: StreamSpec,
    cdfs: Mapping[str, EmpiricalCDF],
    allocated: dict[str, float],
    path_order: Sequence[str],
    tw: float,
    chunks: int = 10,
) -> tuple[Optional[dict[str, float]], float]:
    """Map one violation-bound stream; returns (rate per path, achieved
    bound), the rates ``None`` when even the best split exceeds the bound."""
    x_total = spec.packets_in_window(tw)
    bound = spec.max_violation_rate
    # Lemma 2 reads the whole residual distribution (its partial means).
    residuals = {
        p: shifted_cdf(cdfs[p], allocated[p]) for p in path_order
    }

    def rate_of(pkts: int) -> float:
        return spec.rate_from_packets(pkts, tw)

    # Every cumulative packet count the greedy walk below can reach: the
    # chunk grid plus the grid offset by the final partial take.  One
    # vectorized Lemma-2 pass per path (a single searchsorted over all
    # candidate rates) replaces the 2 * paths * chunks scalar calls the
    # walk would otherwise make; each ladder entry is bit-identical to
    # the scalar expected_violation_rate, so placements cannot drift.
    chunk = max(1, x_total // chunks)
    k_max = x_total // chunk
    leftover = x_total - k_max * chunk
    count_set = {k * chunk for k in range(k_max + 1)}
    if leftover:
        count_set |= {k * chunk + leftover for k in range(k_max + 1)}
    counts = np.array(
        sorted(c for c in count_set if c <= x_total), dtype=np.int64
    )
    evr = {
        p: dict(
            zip(
                counts.tolist(),
                expected_violation_rates_batch(
                    residuals[p], counts, spec.packet_size, tw
                ).tolist(),
            )
        )
        for p in path_order
    }

    # Single-path attempt: lowest expected violation rate wins if in bound.
    singles = [(evr[p][x_total], p) for p in path_order]
    best_rate, best_path = min(singles, key=lambda t: (t[0], path_order.index(t[1])))
    if best_rate <= bound:
        return {best_path: rate_of(x_total)}, best_rate

    # Greedy chunk split: place each chunk of packets on the path whose
    # expected violations grow least.
    placed = {p: 0 for p in path_order}
    remaining = x_total
    while remaining > 0:
        take = min(chunk, remaining)
        best_p, best_cost = None, None
        for p in path_order:
            new_x = placed[p] + take
            cost = (
                evr[p][new_x] * new_x - evr[p][placed[p]] * placed[p]
            )
            if best_cost is None or cost < best_cost:
                best_p, best_cost = p, cost
        placed[best_p] += take
        remaining -= take
    total_violations = sum(
        evr[p][placed[p]] * placed[p]
        for p in path_order
        if placed[p] > 0
    )
    achieved = total_violations / x_total
    if achieved > bound:
        return None, achieved
    return {p: rate_of(c) for p, c in placed.items() if c > 0}, achieved


def _refusal(spec: StreamSpec, achieved: Optional[float]) -> AdmissionError:
    """The upcall for a stream that fits nowhere: ``achieved`` is what
    its best split achieved, ``None`` when no path meets its RTT/loss
    ceilings."""
    if achieved is None:
        reason = "no path meets its RTT/loss ceilings"
    elif spec.max_violation_rate is not None:
        reason = (
            f"expected violation rate {achieved:.4f} exceeds bound "
            f"{spec.max_violation_rate:.4f} on every split"
        )
    else:
        reason = (
            f"no single path or split meets {spec.required_mbps:.3f} Mbps "
            f"at P={spec.probability:.2f}"
        )
    return AdmissionError(spec.name, reason)


def even_split_mapping(
    specs: Sequence[StreamSpec],
    cdfs: Mapping[str, EmpiricalCDF],
    tw: float,
) -> ResourceMapping:
    """Ablation mapping: split every stream evenly across all paths.

    Ignores the single-path-first preference and the CDF-driven placement;
    used to quantify what those decisions contribute (guaranteed streams
    get exposed to every path's noise).  Guarantees are reported via the
    union bound over the even shares.
    """
    if tw <= 0:
        raise ConfigurationError(f"tw must be positive, got {tw}")
    path_order = list(cdfs)
    n = len(path_order)
    rates: dict[str, dict[str, float]] = {}
    achieved_p: dict[str, float] = {}
    packets: dict[str, dict[str, int]] = {}
    guaranteed = [s for s in specs if s.guaranteed]
    for spec in specs:
        if spec.elastic and spec.required_mbps is None:
            total = spec.weight
        else:
            total = spec.required_mbps or spec.weight
        shares = {p: total / n for p in path_order}
        rates[spec.name] = shares
        x_total = packets_per_window(total, spec.packet_size, tw)
        counts = largest_remainder_split(x_total, [1.0] * n)
        packets[spec.name] = {
            p: c for p, c in zip(path_order, counts) if c > 0
        }
    if guaranteed:
        # One vectorized Lemma-1 pass per path covering every guaranteed
        # stream's even share (a single searchsorted per path instead of
        # one scalar call per (stream, path) pair).  Misses are still
        # summed per stream in path_order, so the result is bit-identical
        # to the scalar loop.
        share_rates = np.array(
            [rates[s.name][path_order[0]] for s in guaranteed], dtype=float
        )
        guarantees = {
            p: probabilistic_guarantee_batch(cdfs[p], share_rates)
            for p in path_order
        }
        for i, spec in enumerate(guaranteed):
            misses = sum(
                1.0 - float(guarantees[p][i]) for p in path_order
            )
            achieved_p[spec.name] = max(0.0, 1.0 - misses)
    # An explicit table: the ``total / n`` shares need not sum back to
    # ``total`` bit for bit, so it cannot be re-derived from the rates.
    return ResourceMapping(
        rates_mbps=rates,
        achieved_probability=achieved_p,
        tw=tw,
        packets=packets,
    )


def best_effort_mapping(
    specs: Sequence[StreamSpec],
    cdfs: Mapping[str, EmpiricalCDF],
    tw: float,
    qos: Mapping[str, PathQoSEstimate] | None = None,
) -> ResourceMapping:
    """Degraded mapping for workloads that failed admission.

    Every guaranteed stream is placed on the single eligible path that
    offers it the *highest achievable* probability — its target is
    ignored, so ``achieved_probability`` reports what the overlay can
    actually deliver (the number the admission upcall hands back to the
    application).  Elastic streams split the leftover as usual.  Never
    raises :class:`AdmissionError`.
    """
    if tw <= 0:
        raise ConfigurationError(f"tw must be positive, got {tw}")
    if not cdfs:
        raise ConfigurationError("at least one path CDF is required")
    path_order = list(cdfs)
    allocated = {p: 0.0 for p in path_order}
    rates: dict[str, dict[str, float]] = {}
    achieved_p: dict[str, float] = {}
    ordered = sorted(
        (s for s in specs if s.guaranteed or s.max_violation_rate is not None),
        key=lambda s: (-(s.probability or 1.0), -(s.required_mbps or 0.0)),
    )
    memo = _ResidualMemo(cdfs)
    for spec in ordered:
        candidates = eligible_paths(spec, path_order, qos) or list(path_order)
        best_path, best_achieved = None, -1.0
        for p in candidates:
            achieved = memo.guarantee(
                p, allocated[p], spec.required_mbps
            )
            if achieved > best_achieved:
                best_path, best_achieved = p, achieved
        rates[spec.name] = {best_path: spec.required_mbps}
        achieved_p[spec.name] = best_achieved
        allocated[best_path] += spec.required_mbps
    # Elastic leftover, as in compute_mapping.
    elastic = [s for s in specs if s.elastic]
    leftover = {p: memo.leftover_mean(p, allocated[p]) for p in path_order}
    total_leftover = sum(leftover.values())
    total_weight = sum(s.weight for s in elastic) if elastic else 0.0
    for spec in elastic:
        share_total = (
            total_leftover * spec.weight / total_weight if total_weight else 0.0
        )
        shares = {}
        for p in path_order:
            frac = leftover[p] / total_leftover if total_leftover else 0.0
            if share_total * frac > 1e-9:
                shares[p] = share_total * frac
        prior = rates.get(spec.name, {})
        for p, r in shares.items():
            prior[p] = prior.get(p, 0.0) + r
        rates[spec.name] = prior
    return ResourceMapping(
        rates_mbps=rates,
        achieved_probability=achieved_p,
        tw=tw,
        specs=specs,
    )


class _Placement(NamedTuple):
    """One guaranteed stream's place in the fold."""

    spec: StreamSpec
    #: Rate per path; the fold's own dict, never written after the
    #: placement (delivery keeps it to compare with the next one).
    shares: dict[str, float]
    #: Achieved P, or the achieved violation bound.
    achieved: float
    #: Mbps promised per path once this stream is placed.
    allocated: dict[str, float]


#: Builds a record without the Python-level ``__new__`` of a NamedTuple.
_new_record = tuple.__new__
_PRECEDENCE = attrgetter("mapping_precedence")
_NAME = attrgetter("spec.name")
_ACHIEVED = attrgetter("achieved")
_ELASTIC = attrgetter("elastic")
_WEIGHT = attrgetter("weight")


class PlacementFold:
    """The precedence-ordered placement fold, carried between solves.

    Guaranteed streams are placed one after another, each against what
    the streams before it left (:func:`compute_mapping`), so a stream's
    placement is a function of the streams ahead of it and of nothing
    behind it.  The fold keeps that sequence with, per position, the
    shares, the achieved guarantee and the allocation after it; the next
    solve over the same paths keeps the positions ahead of the first
    one that changed and places only what follows.  One more stream at
    the end of the precedence order costs one placement; a rejection
    leaves the streams ahead of the rejected one in place for the
    partial solve and the renegotiation that follow it.

    The fold also keeps the last input and, in precedence order, the
    streams of it that it places, with their keys
    (``StreamSpec.mapping_precedence``, computed once per spec).  The
    next input is compared with the last one by identity: one stream
    added (an open) or removed (the partial solve after a rejection) is
    applied to the order with a bisect on the keys, and the edit's
    position is where the kept placements end.  Equal keys
    keep input order, so an insert among tied keys goes after the tied
    streams ahead of it in the input.  Any other edit sorts again, and
    keeps the placements whose spec is the same object, or an equal
    one, as before.

    What is kept answers the question only while it is the same
    question: the placements go when the usable path list, any path's
    CDF snapshot (by identity — a monitor hands out one object until
    its next sample), the RTT/loss levels or ``tw`` differ from the
    solve before.  Specs and snapshots are held until then and no
    longer; nothing here points back at a service or scheduler.

    :meth:`fits` asks whether a set maps without building the mapping,
    and :meth:`renegotiate` runs a degradation ladder as edits of the
    order itself, with no input to compare.

    ``solves``, ``placements`` and ``reused`` count, over the fold's
    lifetime, passes over the order (a solve, or one step of a
    ladder), streams placed and streams kept from the pass before;
    ``rate_derivations`` counts the ``rates_mbps`` tables derived from
    its solves (:meth:`SolvedPlacements.rates`).
    """

    __slots__ = (
        "_tw", "_qos", "_memo", "_inputs", "_ordered", "_keys", "_placed",
        "solves", "placements", "reused", "rate_derivations",
    )

    def __init__(self) -> None:
        self._tw: Optional[float] = None
        self._qos: Optional[dict[str, PathQoSEstimate]] = None
        self._memo: Optional[_ResidualMemo] = None
        #: The last input, and the streams of it the fold places in
        #: precedence order, with their keys.
        self._inputs: tuple[StreamSpec, ...] = ()
        self._ordered: list[StreamSpec] = []
        self._keys: list[tuple] = []
        #: One record per leading position of ``_ordered``.
        self._placed: list[_Placement] = []
        self.solves = 0
        self.placements = 0
        self.reused = 0
        self.rate_derivations = 0

    def _memo_for(
        self,
        cdfs: Mapping[str, EmpiricalCDF],
        tw: float,
        qos: Mapping[str, PathQoSEstimate] | None,
    ) -> _ResidualMemo:
        """The residual answers for these inputs; empties a stale fold."""
        memo = self._memo
        if not (
            memo is not None
            and self._tw == tw
            and list(memo.cdfs) == list(cdfs)
            and all(map(is_, memo.cdfs.values(), cdfs.values()))
            and self._qos == qos
        ):
            # Copies: the caller may go on to edit its own mappings.
            memo = self._memo = _ResidualMemo(dict(cdfs))
            self._tw = tw
            self._qos = None if qos is None else dict(qos)
            self._placed = []
        return memo

    def _reorder(self, specs: tuple[StreamSpec, ...]) -> int:
        """Bring the precedence order to ``specs``; returns how many of
        its leading positions hold what they held before."""
        old, self._inputs = self._inputs, specs
        n_old, n = len(old), len(specs)
        # The first input position the two lists differ at.
        j = next(compress(count(), map(is_not, old, specs)), min(n_old, n))
        if n == n_old == j:
            return len(self._ordered)
        at = None
        if n == n_old + 1:
            if all(map(is_, islice(old, j, None), islice(specs, j + 1, None))):
                at = self._insert(specs[j], j)
        elif n == n_old - 1:
            if all(map(is_, islice(old, j + 1, None), islice(specs, j, None))):
                at = self._remove(old[j])
        return self._resort() if at is None else at

    def _remove(self, spec: StreamSpec) -> Optional[int]:
        key = spec.mapping_precedence
        if key is None:
            return len(self._ordered)
        keys = self._keys
        lo = bisect_left(keys, key)
        # Among the tied keys, the spec itself.
        i = next(
            compress(
                count(lo),
                map(is_, islice(self._ordered, lo, bisect_right(keys, key, lo)),
                    repeat(spec)),
            ),
            None,
        )
        if i is not None:
            del self._ordered[i], keys[i]
        return i

    def _insert(self, spec: StreamSpec, j: int) -> int:
        """Bisect in ``spec``, input position ``j``."""
        key = spec.mapping_precedence
        if key is None:
            return len(self._ordered)
        keys = self._keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            # Equal keys keep input order: ``spec`` goes after the tied
            # streams ahead of it in the input.
            i += list(map(_PRECEDENCE, islice(self._inputs, j))).count(key)
        self._ordered.insert(i, spec)
        keys.insert(i, key)
        return i

    def _resort(self) -> int:
        """The stable sort by key; keeps the records placed for the same
        specs (the same objects, or equal ones) at the same positions."""
        ordered = sorted(filter(_PRECEDENCE, self._inputs), key=_PRECEDENCE)
        self._ordered = ordered
        self._keys = list(map(_PRECEDENCE, ordered))
        keep = 0
        for record, spec in zip(self._placed, ordered):
            if record.spec is not spec and record.spec != spec:
                break
            keep += 1
        return keep

    def _start(
        self,
        specs: tuple[StreamSpec, ...],
        cdfs: Mapping[str, EmpiricalCDF],
        tw: float,
        qos: Mapping[str, PathQoSEstimate] | None,
    ) -> None:
        """Make ``specs`` the fold's input: the placements behind the
        first position that changed go, and all of them if the paths
        did."""
        self._memo_for(cdfs, tw, qos)
        del self._placed[self._reorder(specs):]

    def _extend(self) -> Optional[tuple[StreamSpec, Optional[float]]]:
        """Place the streams of the order behind the placed prefix.

        Returns ``None`` once all are placed.  A stream that fits
        nowhere ends the pass where it stands, at ``len(self._placed)``;
        the return value is that stream and what its best split
        achieved (``None`` when no path meets its RTT/loss ceilings),
        which :func:`_refusal` words.
        """
        placed = self._placed
        memo = self._memo
        cdfs, path_order, tw, qos = memo.cdfs, memo.paths, self._tw, self._qos
        kept = len(placed)
        self.solves += 1
        self.reused += kept
        # Each record's allocation is its own dict, never written after
        # the placement that made it.
        allocated = placed[-1].allocated if placed else memo.unplaced
        refused = None
        for spec in islice(self._ordered, kept, None):
            candidates = eligible_paths(spec, path_order, qos)
            if not candidates:
                refused = spec, None
                break
            if spec.max_violation_rate is not None:
                shares, achieved = _map_violation_bound(
                    spec, cdfs, allocated, candidates, tw
                )
            else:
                shares, achieved = _map_probabilistic(
                    spec, allocated, candidates, memo
                )
            if shares is None:
                refused = spec, achieved
                break
            allocated = dict(allocated)
            for p, r in shares.items():
                allocated[p] += r
            placed.append(
                _new_record(_Placement, (spec, shares, achieved, allocated))
            )
        self.placements += len(placed) - kept
        return refused

    def _place(
        self,
        specs: tuple[StreamSpec, ...],
        cdfs: Mapping[str, EmpiricalCDF],
        tw: float,
        qos: Mapping[str, PathQoSEstimate] | None,
    ) -> tuple[tuple[_Placement, ...], int, _ResidualMemo]:
        """Place ``specs`` in precedence order, path by path.

        Returns the placement records, how many of them (the leading
        ones) are probabilistic guarantees, and the residual answers
        they were placed with.  Raises :class:`AdmissionError` at the
        first stream that fits nowhere; the streams ahead of it stay
        placed.
        """
        self._start(specs, cdfs, tw, qos)
        refused = self._extend()
        if refused is not None:
            raise _refusal(*refused)
        placed = self._placed
        probabilistic = bisect_left(
            self._keys, FIRST_VIOLATION_BOUND, 0, len(placed)
        )
        return tuple(placed), probabilistic, self._memo

    def fits(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        tw: float,
        qos: Mapping[str, PathQoSEstimate] | None = None,
    ) -> bool:
        """Whether :func:`compute_mapping` maps ``specs``, without
        building the mapping or an :class:`AdmissionError`.

        Raises :class:`ConfigurationError` where a solve does: no path,
        a ``tw`` that is not positive, or, when the guarantees fit, an
        elastic spec without a weight.
        """
        _check_solve(cdfs, tw)
        specs = tuple(specs)
        self._start(specs, cdfs, tw, qos)
        if self._extend() is not None:
            return False
        _total_weight(specs)  # refuses an elastic spec without a weight
        return True

    def renegotiate(
        self,
        specs: Sequence[StreamSpec],
        cdfs: Mapping[str, EmpiricalCDF],
        tw: float,
        qos: Mapping[str, PathQoSEstimate] | None,
        rung: Callable[
            [StreamSpec, Optional[dict[str, dict[str, float]]]], StreamSpec
        ],
        rungs: int,
    ) -> list[StreamSpec]:
        """Offer ``specs`` at most ``rungs`` times, each time with the
        stream that fits nowhere replaced by what ``rung`` makes of it.

        ``rung`` is handed the refused stream and, when all the other
        streams fit without it, the ``rates_mbps`` of that partial
        solve (elastic shares included), else ``None``; it returns the
        stream's replacement, of the same name.  Returns the
        specs after the last rung, each at its input position; names
        must be unique.  The answers, and the :class:`ConfigurationError`
        for an elastic spec without a weight, are those of solving the
        set, then the set without the refused stream, then the set with
        its replacement, rung after rung.

        The set is not submitted again per rung.  A stream's placement
        depends on the streams ahead of it only, so the partial solve
        goes on from the refused position with the stream left out of
        the order, the replacement is bisected into the order at its
        key (equal keys in input order), and the next solve places from
        the earlier of its position and the partial's end.  When the
        partial solve stopped at a stream ahead of the replacement, or
        the replacement has no key, the next solve would stop at that
        stream again: its answer is known and nothing is placed.  After
        a rung that fits, the fold holds what a solve of the returned
        specs leaves; when ``rungs`` runs out first, a prefix of that.
        """
        _check_solve(cdfs, tw)
        specs = list(specs)
        self._start(tuple(specs), cdfs, tw, qos)
        where = {s.name: j for j, s in enumerate(specs)}
        placed, ordered, keys = self._placed, self._ordered, self._keys
        # Input positions along the order: equal keys stand in input
        # order, so a tied insert is a bisect on these.
        ranks = [where[s.name] for s in ordered]
        solved = False
        try:
            for _ in range(rungs):
                if not solved:
                    refused = self._extend()
                if refused is None:
                    _total_weight(specs)  # as the solve of ``specs`` would
                    break
                spec = refused[0]
                j = where[spec.name]
                # The partial solve: the streams behind it, without it.
                f = len(placed)
                del ordered[f], keys[f], ranks[f]
                refused = self._extend()
                others = None
                if refused is None:
                    elastic = [s for s in specs if s.elastic and s is not spec]
                    others = SolvedPlacements(
                        placed, self._memo, self._qos, elastic,
                        _total_weight(elastic), self,
                    ).rates()
                new = specs[j] = rung(spec, others)
                solved = True
                key = new.mapping_precedence
                if key is not None:
                    lo = bisect_left(keys, key)
                    i = bisect_left(ranks, j, lo, bisect_right(keys, key, lo))
                    ordered.insert(i, new)
                    keys.insert(i, key)
                    ranks.insert(i, j)
                    if i <= len(placed):
                        del placed[i:]
                        solved = False
        except BaseException:
            # A rung that raised leaves the order mid-edit: start over.
            self._inputs, self._ordered, self._keys = (), [], []
            self._placed = []
            raise
        self._inputs = tuple(specs)
        return specs


def _check_solve(cdfs: Mapping[str, EmpiricalCDF], tw: float) -> None:
    """What no solve can start without."""
    if tw <= 0:
        raise ConfigurationError(f"tw must be positive, got {tw}")
    if not cdfs:
        raise ConfigurationError("at least one path CDF is required")


def _total_weight(specs: Sequence[StreamSpec]) -> float:
    """The elastic streams' summed weight; an elastic spec without one
    raises :class:`ConfigurationError`, as a solve does."""
    return sum(map(_WEIGHT, filter(_ELASTIC, specs)))


class SolvedPlacements(NamedTuple):
    """What a :func:`compute_mapping` solve hands over instead of rates.

    The placement records in precedence order (a guaranteed stream's
    shares are its rates), the residual answers they were placed with,
    the RTT/loss levels, the elastic specs and their summed weight, and
    the fold that solved.  From these :meth:`rates` derives the whole
    ``rates_mbps`` table for the readers that need one, and delivery
    reads what it needs without it: the shares of the records a solve
    placed anew, and one :meth:`elastic_split` per elastic class.
    """

    placed: Sequence[_Placement]
    memo: _ResidualMemo
    qos: Optional[Mapping[str, PathQoSEstimate]]
    elastic: Sequence[StreamSpec]
    total_weight: float
    fold: PlacementFold

    @property
    def paths(self) -> list[str]:
        """The solve's path order."""
        return self.memo.paths

    def leftover(self) -> tuple[dict[str, float], float]:
        """Mean bandwidth each path has left beyond the placements, and
        the sum of those in path order."""
        placed, memo = self.placed, self.memo
        allocated = placed[-1].allocated if placed else memo.unplaced
        leftover = {
            p: memo.leftover_mean(p, allocated[p]) for p in memo.paths
        }
        return leftover, sum(leftover.values())

    def elastic_split(
        self,
        weight: float,
        candidates: Sequence[str],
        leftover: Mapping[str, float],
        total_leftover: float,
    ) -> dict[str, float]:
        """The shares of an elastic stream of ``weight`` on its eligible
        ``candidates``: its weight's part of the leftover, split over
        the candidates by their leftover; shares of 1e-9 or less are
        left out."""
        total_weight = self.total_weight
        share_total = (
            total_leftover * weight / total_weight if total_weight else 0.0
        )
        eligible_leftover = sum(leftover[p] for p in candidates)
        shares = {}
        for p in candidates:
            frac = (
                leftover[p] / eligible_leftover if eligible_leftover else 0.0
            )
            r = share_total * frac
            if r > 1e-9:
                shares[p] = r
        return shares

    def rates(self) -> dict[str, dict[str, float]]:
        """The solve's ``rates_mbps``, derived afresh (and counted)."""
        self.fold.rate_derivations += 1
        return _solved_rates(self)


def _solved_rates(solve: SolvedPlacements) -> dict[str, dict[str, float]]:
    """A solve's ``rates_mbps``: the placed streams' shares, then the
    elastic streams' split of the leftover mean bandwidth by weight.

    A spec both guaranteed and elastic gets its elastic share added on
    top of its guaranteed one (see ``specs`` of :func:`compute_mapping`
    for why the service still refuses one).
    """
    rates: dict[str, dict[str, float]] = {}
    for spec, shares, _, _ in solve.placed:
        # A copy: the elastic share below is added onto it in place.
        rates[spec.name] = dict(shares)
    if not solve.elastic:
        return rates
    path_order, qos = solve.paths, solve.qos
    leftover, total_leftover = solve.leftover()
    # An elastic stream's shares depend on its weight and its eligible
    # paths only, and catalog templates share both: each distinct pair
    # is split once, and every stream of it takes a copy.
    splits: dict[tuple, dict[str, float]] = {}
    for spec in solve.elastic:
        weight = spec.weight
        candidates = eligible_paths(spec, path_order, qos)
        key = (weight, *candidates)
        shares = splits.get(key)
        if shares is None:
            shares = splits[key] = solve.elastic_split(
                weight, candidates, leftover, total_leftover
            )
        prior = rates.get(spec.name)
        if prior is None:
            rates[spec.name] = dict(shares)
        else:
            for p, r in shares.items():
                prior[p] = prior.get(p, 0.0) + r
    return rates


def compute_mapping(
    specs: Sequence[StreamSpec],
    cdfs: Mapping[str, EmpiricalCDF],
    tw: float,
    qos: Mapping[str, PathQoSEstimate] | None = None,
    fold: Optional[PlacementFold] = None,
) -> ResourceMapping:
    """Run the full utility-based resource-mapping step.

    Parameters
    ----------
    specs:
        All streams to map (guaranteed, violation-bound, and elastic).
        The mapping keeps a copy of the sequence to build its rates and
        packet table from, when they are read.  A spec both guaranteed
        and elastic is mapped (its elastic share on top of its
        guaranteed one), but interval-mode delivery files two requests
        for it on one path, so the service refuses it at open: a
        layered stream is a guaranteed base stream plus an elastic fill
        stream.
    cdfs:
        Per-path available-bandwidth CDFs from monitoring.
    tw:
        Scheduling-window length in seconds.
    qos:
        Optional monitored RTT/loss levels per path; streams with
        ``max_rtt_ms`` / ``max_loss_rate`` ceilings are only placed on
        paths meeting them.
    fold:
        The :class:`PlacementFold` of a caller that solves again and
        again (admission control and the scheduler's remap): placements
        the previous solve settled against the same inputs are kept,
        not derived again.  The result is the one a fresh fold gives.

    Raises
    ------
    AdmissionError
        When some guaranteed stream fits neither on a single path nor split
        across all of them (or no path meets its RTT/loss ceilings).
    """
    _check_solve(cdfs, tw)
    if fold is None:
        fold = PlacementFold()
    specs = tuple(specs)
    # Precedence: StreamSpec.mapping_precedence, ties in input order.
    placed, probabilistic, memo = fold._place(specs, cdfs, tw, qos)
    names = list(map(_NAME, placed))
    achieved = list(map(_ACHIEVED, placed))
    elastic = list(filter(_ELASTIC, specs))
    # Summed now, so a solve refuses an elastic spec without a weight
    # (ConfigurationError) whether or not its rates are ever read.
    total_weight = _total_weight(elastic)
    mapping = ResourceMapping(
        None,
        dict(zip(names[:probabilistic], achieved[:probabilistic])),
        dict(zip(names[probabilistic:], achieved[probabilistic:])),
        tw,
        specs=specs,
    )
    mapping.placements = SolvedPlacements(
        placed, memo, fold._qos, elastic, total_weight, fold
    )
    return mapping
