"""Parameter sweeps: where the guarantees break.

The paper's experiments sit at one operating point; a downstream user
wants to know the *envelope*: as cross traffic grows, when does PGOS stop
admitting the workload, and how do attainment and fairness degrade for
each algorithm before that?  :func:`sweep_cross_traffic` answers both,
and is the engine behind the ``sweep`` figure
(``python -m repro.harness sweep``).

Every sweep is built from *pure per-point functions*
(:func:`cross_traffic_point`, :func:`measurement_noise_point`) whose RNG
seeds are derived from the point's own identity via :func:`point_seed`
rather than threaded through as one shared scalar.  Points are therefore
order-independent: ``repro.runner`` can fan them out across worker
processes and reassemble bit-identical results to the serial loops here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.apps.smartpointer import (
    BOND1_MBPS,
    make_scheduler,
    smartpointer_streams,
)
from repro.baselines.optsched import OptSchedScheduler
from repro.core.admission import AdmissionController
from repro.harness.experiment import run_schedule_experiment
from repro.harness.metrics import fraction_of_time_at_least
from repro.monitoring.cdf import EmpiricalCDF
from repro.network.emulab import make_figure8_testbed


def point_seed(base_seed: int, label: str) -> int:
    """Derive an order-independent RNG seed for one sweep point.

    Mixes the sweep's base seed with the point's identity label through
    SHA-256 (stable across processes — unlike Python's randomized
    ``hash()``), so each point's realization depends only on *what* it
    is, never on where in the sweep — or on which worker — it ran.
    """
    digest = hashlib.sha256(
        f"{base_seed}|{label}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass(frozen=True)
class SweepPoint:
    """Results at one cross-traffic intensity."""

    scale: float
    admitted: bool
    suggested_probability: float | None
    #: per algorithm: fraction of time Bond1 received its required rate
    attainment: dict[str, float] = field(default_factory=dict)
    #: per algorithm: aggregate mean throughput (work conservation check)
    total_mbps: dict[str, float] = field(default_factory=dict)


def cross_traffic_point(
    scale: float,
    algorithms: Sequence[str] = ("MSFQ", "PGOS"),
    seed: int = 7,
    duration: float = 90.0,
    dt: float = 0.1,
    warmup_intervals: int = 200,
) -> SweepPoint:
    """One cross-traffic intensity, as a pure spec->result function.

    The realization's seed is :func:`point_seed`-derived from
    ``(seed, scale)``, so this point computes identically whether it
    runs inside :func:`sweep_cross_traffic`'s serial loop or fanned out
    to a ``repro.runner`` worker.
    """
    if scale < 0:
        raise ConfigurationError(f"scale must be >= 0, got {scale}")
    realization_seed = point_seed(seed, f"xtraffic/{scale:.6g}")
    testbed = make_figure8_testbed(xtraffic_scale=scale)
    realization = testbed.realize(
        seed=realization_seed, duration=duration, dt=dt
    )
    cdfs = {
        p: EmpiricalCDF(
            realization.available[p].window(0, warmup_intervals)
        )
        for p in realization.path_names()
    }
    decision = AdmissionController(tw=1.0).try_admit(
        smartpointer_streams(), cdfs
    )
    attainment: dict[str, float] = {}
    totals: dict[str, float] = {}
    for name in algorithms:
        scheduler = make_scheduler(name)
        if isinstance(scheduler, OptSchedScheduler):
            scheduler.set_oracle(
                {
                    p: realization.available[p].available_mbps
                    for p in realization.path_names()
                }
            )
        result = run_schedule_experiment(
            scheduler,
            realization,
            smartpointer_streams(),
            warmup_intervals=warmup_intervals,
        )
        bond1 = result.stream_series("Bond1")
        attainment[name] = fraction_of_time_at_least(
            bond1, BOND1_MBPS * 0.999
        )
        totals[name] = float(result.total_series().mean())
    return SweepPoint(
        scale=scale,
        admitted=decision.admitted,
        suggested_probability=decision.suggested_probability,
        attainment=attainment,
        total_mbps=totals,
    )


def sweep_cross_traffic(
    scales: Sequence[float],
    algorithms: Sequence[str] = ("MSFQ", "PGOS"),
    seed: int = 7,
    duration: float = 90.0,
    dt: float = 0.1,
    warmup_intervals: int = 200,
) -> list[SweepPoint]:
    """Sweep cross-traffic intensity over the SmartPointer workload.

    For each scale: (1) check admission of the paper's stream set against
    a monitored probe of the scaled testbed; (2) run each algorithm and
    record Bond1's guarantee attainment and the aggregate throughput.
    """
    if not scales:
        raise ConfigurationError("scales must be non-empty")
    return [
        cross_traffic_point(
            scale,
            algorithms=algorithms,
            seed=seed,
            duration=duration,
            dt=dt,
            warmup_intervals=warmup_intervals,
        )
        for scale in scales
    ]


@dataclass(frozen=True)
class NoisePoint:
    """Guarantee attainment at one probing-quality level."""

    label: str
    attainment: float


#: The probing-quality sweep's critical demand on the steady-vs-wild path
#: pair: high enough that the steady path's guarantee is < 1.0, so a
#: smoothed (dip-blind) view of the wild path can win the placement.
DECEPTIVE_CRITICAL_MBPS = 47.0


def measurement_noise_point(
    label: str,
    probe: Optional[object],
    seed: int = 7,
    duration: float = 90.0,
    dt: float = 0.1,
    warmup_intervals: int = 200,
) -> NoisePoint:
    """One probing-quality level, as a pure spec->result function.

    The *realization* seed is the sweep's base seed — the deceptive
    steady-vs-wild scenario is the controlled variable every point
    shares — but the probe's own noise RNG is :func:`point_seed`-derived
    from the point's label, so noisy-probe points are order- and
    worker-independent rather than inheriting whatever seed the
    realization happened to carry.
    """
    from repro.core.spec import StreamSpec

    testbed = make_figure8_testbed(profile_a="steady", profile_b="wild")
    realization = testbed.realize(seed=seed, duration=duration, dt=dt)
    streams = [
        StreamSpec(
            name="crit",
            required_mbps=DECEPTIVE_CRITICAL_MBPS,
            probability=0.95,
        ),
        StreamSpec(name="bulk", elastic=True, nominal_mbps=30.0),
    ]
    result = run_schedule_experiment(
        make_scheduler("PGOS"),
        realization,
        streams,
        warmup_intervals=warmup_intervals,
        probe=probe,
        probe_seed=point_seed(seed, f"noise/{label}"),
    )
    return NoisePoint(
        label=label,
        attainment=fraction_of_time_at_least(
            result.stream_series("crit"),
            DECEPTIVE_CRITICAL_MBPS * 0.999,
        ),
    )


def sweep_measurement_noise(
    probes: Sequence[tuple[str, object]],
    seed: int = 7,
    duration: float = 90.0,
    dt: float = 0.1,
    warmup_intervals: int = 200,
) -> list[NoisePoint]:
    """Sweep probing quality: how wrong can monitoring be before PGOS slips?

    ``probes`` is a list of ``(label, ProbingEstimator-or-None)`` pairs;
    each point reports the critical stream's guarantee attainment on the
    *deceptive* steady-vs-wild path pair (42 Mbps @ 95 %).  That scenario
    is where probing quality matters: multiplicative noise and bias
    preserve the relative ordering of the two paths' distributions (and
    PGOS shrugs them off), but probe *smoothing* smears the wild path's
    short dips away and can fool the percentile placement onto it.
    """
    if not probes:
        raise ConfigurationError("probes must be non-empty")
    return [
        measurement_noise_point(
            label,
            probe,
            seed=seed,
            duration=duration,
            dt=dt,
            warmup_intervals=warmup_intervals,
        )
        for label, probe in probes
    ]


def admission_crossover(points: Sequence[SweepPoint]) -> float | None:
    """Smallest swept scale at which admission fails (None if it never does)."""
    for point in sorted(points, key=lambda p: p.scale):
        if not point.admitted:
            return point.scale
    return None


def render_sweep(points: Sequence[SweepPoint]) -> str:
    """ASCII table of a sweep (one row per intensity)."""
    from repro.harness.report import format_table

    algorithms = sorted(
        {name for point in points for name in point.attainment}
    )
    headers = ["x-traffic scale", "admitted"] + [
        f"{a} attainment" for a in algorithms
    ] + [f"{a} total Mbps" for a in algorithms]
    rows = []
    for point in sorted(points, key=lambda p: p.scale):
        row: list[object] = [f"{point.scale:.2f}", str(point.admitted)]
        row += [point.attainment.get(a) for a in algorithms]
        row += [point.total_mbps.get(a) for a in algorithms]
        rows.append(row)
    return format_table(headers, rows)
