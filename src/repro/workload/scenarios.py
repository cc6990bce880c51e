"""Named, reproducible scale scenarios behind one entry point.

A :class:`ScaleScenario` bundles an arrival model, a session catalog, a
run duration, and the middleware's admission posture; the registry in
:data:`SCENARIOS` names the four standard ones:

``baseline``
    Steady Poisson churn sized to offer well over a thousand sessions —
    the determinism and throughput yardstick.
``diurnal``
    MMPP day/night modulation: the overlay sees alternating calm and
    rush periods.
``flash-crowd``
    A trapezoid burst to several times the base arrival rate — the
    admission controller's stress test.
``flash-crowd-chaos``
    The flash crowd landing *during* a random fault campaign, with
    lenient admission so degradation (not rejection) absorbs the hit —
    the composition test between the workload engine and the chaos
    harness.

:func:`make_scenario` names the instance and :func:`make_scale_run`
builds its driver — the one way a workload run is configured:
``(scenario, seed, max_sessions[, partition])``.
:func:`run_scale_scenario` is the pure front door on top: build the
testbed, realize it from a seed-derived sub-seed, play the plan through
a :class:`~repro.workload.driver.ChurnDriver`, and return the
:class:`~repro.workload.driver.WorkloadReport`.  Same arguments, same
report — byte for byte.  :func:`run_identity` writes the same tuple
down as data: what a checkpoint must match to be this run's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.network.faults import FaultCampaign
from repro.obs.context import NULL_OBS, Observability
from repro.runner.spec import mix_seed
from repro.topo.generators import build_testbed
from repro.topo.spec import parse_topology
from repro.workload.arrivals import (
    ArrivalModel,
    FlashCrowdArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workload.catalog import (
    default_catalog,
    plan_sessions,
    slice_plans_by_tenant,
)
from repro.workload.driver import ChurnDriver, WorkloadReport

#: Probe intervals before session time starts (shorter than the figure
#: experiments' 200: churn runs need a warm monitor, not a perfect one).
WARMUP_INTERVALS = 100

#: Slack appended to the realization beyond warmup + scenario duration.
REALIZATION_SLACK_S = 5.0

#: The delivery-step interval of every scale run (virtual seconds).
STEP_DT = 0.1


@dataclass(frozen=True)
class ScaleScenario:
    """One named workload scenario: arrivals, mix, and posture."""

    name: str
    model: ArrivalModel
    duration: float
    strict_admission: bool = True
    with_chaos: bool = False
    #: Generated-topology reference (``preset`` or ``preset:traffic``,
    #: see :func:`repro.topo.spec.parse_topology`).  ``None`` runs on
    #: the Figure-8 testbed exactly as before — byte for byte.
    topology: Optional[str] = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigurationError(
                f"duration must be positive, got {self.duration}"
            )
        if self.topology is not None:
            parse_topology(self.topology)  # fail fast on bad references

    def scaled(self, factor: float) -> "ScaleScenario":
        """The same scenario with every arrival rate scaled."""
        return replace(self, model=self.model.scaled(factor))

    def expected_sessions(self) -> float:
        """Rough expected offered-session count (sizing aid)."""
        expected = self.model.mean_rate() * self.duration
        if isinstance(self.model, FlashCrowdArrivals):
            expected += self.model.burst_sessions_expected()
        return expected


def _baseline() -> ScaleScenario:
    return ScaleScenario(
        name="baseline",
        model=PoissonArrivals(rate=16.0),
        duration=75.0,
    )


def _diurnal() -> ScaleScenario:
    return ScaleScenario(
        name="diurnal",
        model=MMPPArrivals.diurnal(6.0, 24.0, period_s=30.0),
        duration=60.0,
    )


def _flash_crowd() -> ScaleScenario:
    return ScaleScenario(
        name="flash-crowd",
        model=FlashCrowdArrivals(
            base_rate=6.0,
            peak_rate=40.0,
            t_start=20.0,
            ramp_s=5.0,
            hold_s=10.0,
            decay_s=10.0,
        ),
        duration=60.0,
    )


def _flash_crowd_chaos() -> ScaleScenario:
    # Lighter than plain flash-crowd: with lenient admission every
    # session opens, and the degradation re-planning that chaos triggers
    # is superlinear in the standing population — this sizing keeps the
    # composition run fast while still exercising shed + downgrade.
    return ScaleScenario(
        name="flash-crowd-chaos",
        model=FlashCrowdArrivals(
            base_rate=2.5,
            peak_rate=12.0,
            t_start=15.0,
            ramp_s=5.0,
            hold_s=8.0,
            decay_s=8.0,
        ),
        duration=50.0,
        strict_admission=False,
        with_chaos=True,
    )


#: Scenario registry: name -> zero-argument factory.
SCENARIOS: dict[str, Callable[[], ScaleScenario]] = {
    "baseline": _baseline,
    "diurnal": _diurnal,
    "flash-crowd": _flash_crowd,
    "flash-crowd-chaos": _flash_crowd_chaos,
}


def make_scenario(
    name: str,
    rate_scale: float = 1.0,
    duration: Optional[float] = None,
    topology: Optional[str] = None,
) -> ScaleScenario:
    """Look up a named scenario, optionally rescaled or re-timed.

    ``topology`` moves the scenario onto a generated topology
    (``preset`` or ``preset:traffic``); ``None`` keeps the Figure-8
    testbed and its exact historical bytes.
    """
    factory = SCENARIOS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        )
    if rate_scale <= 0:
        raise ConfigurationError(
            f"rate_scale must be positive, got {rate_scale}"
        )
    scenario = factory()
    if rate_scale != 1.0:
        scenario = scenario.scaled(rate_scale)
    if duration is not None:
        scenario = replace(scenario, duration=float(duration))
    if topology is not None:
        scenario = replace(scenario, topology=str(topology))
    return scenario


def build_service(
    scenario: ScaleScenario,
    seed: int,
    obs: Optional[Observability] = None,
    partition: Optional[str] = None,
) -> IQPathsService:
    """The Figure-8 middleware stack one scenario run lives on.

    Every stochastic ingredient derives from ``seed`` via
    :func:`~repro.runner.spec.mix_seed`, namespaced by the scenario
    name, so scenarios never share draws and runs are reproducible from
    the single top-level seed.

    With ``partition`` set the seeds are additionally namespaced by the
    partition id (``cluster-realization`` / ``cluster-chaos``): each
    partition simulates its *own* independent testbed realization and
    fault campaign, a pure function of ``(seed, scenario, partition)``
    — never of which shard happens to run it.
    """
    if scenario.topology is None:
        testbed = make_figure8_testbed()
    else:
        testbed = build_testbed(parse_topology(scenario.topology))
    total = (
        WARMUP_INTERVALS * STEP_DT + scenario.duration + REALIZATION_SLACK_S
    )
    # The topology reference joins the seed namespace only when set, so
    # Figure-8 runs keep their exact historical bytes.
    topo_tag = (
        () if scenario.topology is None else (scenario.topology,)
    )
    if partition is None:
        realization_seed = mix_seed(
            seed, "workload-realization", scenario.name, *topo_tag
        )
        chaos_seed = mix_seed(
            seed, "workload-chaos", scenario.name, *topo_tag
        )
    else:
        realization_seed = mix_seed(
            seed, "cluster-realization", scenario.name, partition, *topo_tag
        )
        chaos_seed = mix_seed(
            seed, "cluster-chaos", scenario.name, partition, *topo_tag
        )
    realization = testbed.realize(
        seed=realization_seed,
        duration=total,
        dt=STEP_DT,
    )
    campaign = None
    if scenario.with_chaos:
        campaign = FaultCampaign.random(
            list(realization.path_names()),
            duration=scenario.duration,
            seed=chaos_seed,
        )
    return IQPathsService(
        realization,
        warmup_intervals=WARMUP_INTERVALS,
        strict_admission=scenario.strict_admission,
        campaign=campaign,
        obs=obs,
        partition=partition,
    )


def partition_ids() -> tuple[str, ...]:
    """The partition universe: the default catalog's tenants, sorted.

    The tenant is the cluster's atomic simulation unit — sessions of
    one tenant never split across shards — so this list is what the
    master hashes onto shards and what the in-process baseline iterates.
    """
    return tuple(sorted(t.name for t in default_catalog().tenants))


def make_scale_run(
    scenario: ScaleScenario,
    seed: int = 0,
    max_sessions: Optional[int] = None,
    obs: Optional[Observability] = None,
    on_step: Optional[Callable[[int, float], None]] = None,
    partition: Optional[str] = None,
) -> ChurnDriver:
    """Build the ready-to-run driver for one scenario (not yet run).

    Every stochastic ingredient (plans, realization, campaign) is a
    pure function of ``seed``, which is what makes checkpoint/resume
    cheap: a resuming process calls this again to reconstruct the
    identical immutable scaffolding, then restores only the mutable
    state from the snapshot.

    With ``partition`` the driver plays that tenant's slice only.  The
    *full* session plan is expanded with the same plan seed the whole
    run uses — ``max_sessions`` truncates the full plan *before* the
    tenant filter — then sliced down to ``partition``'s sessions.  The
    union of all partition slices is therefore exactly the whole run's
    population, and each slice is independent of how many other
    partitions exist or where they run.
    """
    if partition is not None and partition not in partition_ids():
        raise ConfigurationError(
            f"unknown partition {partition!r}; known: {list(partition_ids())}"
        )
    # Scenario planning + testbed realization + warmup is a real slice
    # of short runs' wall time; attribute it, don't lose it.
    with (obs if obs is not None else NULL_OBS).prof.span("workload.setup"):
        plans = plan_sessions(
            scenario.model,
            default_catalog(),
            scenario.duration,
            seed=mix_seed(seed, "workload-plan", scenario.name),
            max_sessions=max_sessions,
        )
        if partition is not None:
            plans = slice_plans_by_tenant(plans, partition)
        service = build_service(scenario, seed, obs=obs, partition=partition)
        return ChurnDriver(
            service,
            plans,
            scenario=scenario.name,
            seed=seed,
            on_step=on_step,
        )


def run_scale_scenario(
    scenario: ScaleScenario,
    seed: int = 0,
    max_sessions: Optional[int] = None,
    obs: Optional[Observability] = None,
) -> WorkloadReport:
    """Run a :class:`ScaleScenario` end to end; the package's front door."""
    driver = make_scale_run(
        scenario, seed=seed, max_sessions=max_sessions, obs=obs
    )
    return driver.run(scenario.duration)


def scenario_params(scenario: ScaleScenario) -> dict[str, Any]:
    """JSON form of a scenario: everything :func:`make_scenario` set."""
    params = {
        "name": scenario.name,
        "model": scenario.model.to_params(),
        "duration": scenario.duration,
        "strict_admission": scenario.strict_admission,
        "with_chaos": scenario.with_chaos,
    }
    if scenario.topology is not None:
        params["topology"] = scenario.topology
    return params


def run_identity(
    scenario: ScaleScenario,
    seed: int,
    max_sessions: Optional[int] = None,
    partition: Optional[str] = None,
) -> dict[str, Any]:
    """What a run's bytes are a pure function of, as JSON data.

    The arguments are :func:`make_scale_run`'s, so two runs with equal
    identities build equal drivers.  It is the meta every checkpoint of
    a run carries and the one a resume demands back; returned in its
    JSON-round-tripped form, so it compares equal to what a snapshot
    file gives back.
    """
    return json.loads(
        json.dumps(
            {
                "scenario": scenario_params(scenario),
                "seed": seed,
                "max_sessions": max_sessions,
                "partition": partition,
            }
        )
    )
