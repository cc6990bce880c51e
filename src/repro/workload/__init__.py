"""Multi-tenant workload engine: arrivals, churn, and capacity envelopes.

The paper evaluates IQ-Paths with a handful of long-lived streams; this
package supplies the *population* view a production overlay needs:

``repro.workload.arrivals``
    Seeded, deterministic session arrival models — Poisson, MMPP
    (diurnal), and flash-crowd bursts — in the calibrated-synthetic
    spirit of data-centre traffic generators.
``repro.workload.catalog``
    Session catalogs: SmartPointer-, GridFTP-, and video-layer-shaped
    :class:`~repro.core.spec.StreamSpec` templates mixed across named
    tenant classes with priorities.
``repro.workload.driver``
    The open-loop churn driver: opens and closes sessions against
    :class:`~repro.middleware.service.IQPathsService` mid-run on the
    sim clock, recording per-tenant admission outcomes (admit / reject
    / degrade / shed), goodput, and attainment.
``repro.workload.scenarios``
    Named, reproducible scenarios (``baseline``, ``diurnal``,
    ``flash-crowd``, ``flash-crowd-chaos``) and the one way a run is
    configured: ``make_scenario`` -> ``make_scale_run`` /
    ``run_scale_scenario``, with ``run_identity`` as its written form.
``repro.workload.envelope``
    The capacity-envelope estimator: binary-searches the maximum
    sustainable arrival rate per scenario subject to a violation-rate
    ceiling.

Everything is a pure function of ``(scenario, seed, max_sessions)``:
two runs with the same identity produce byte-identical workload
reports, which is what lets the scale suite run as
:mod:`repro.runner` specs at any worker count.
"""

from repro.workload.arrivals import (
    ARRIVAL_MODELS,
    ArrivalModel,
    FlashCrowdArrivals,
    MMPPArrivals,
    PoissonArrivals,
    arrival_model_from_params,
    schedule_checksum,
)
from repro.workload.catalog import (
    CatalogEntry,
    SessionCatalog,
    SessionPlan,
    SessionTemplate,
    TenantClass,
    default_catalog,
    plan_concurrent_batch,
    plan_sessions,
    slice_plans_by_tenant,
)
from repro.workload.driver import (
    ChurnDriver,
    SessionRecord,
    TenantAccount,
    WorkloadReport,
    merge_report_payloads,
    merged_checksum,
)
from repro.workload.envelope import (
    CapacityEnvelope,
    EnvelopeProbe,
    estimate_envelope,
)
from repro.workload.scenarios import (
    SCENARIOS,
    ScaleScenario,
    build_service,
    make_scale_run,
    make_scenario,
    partition_ids,
    run_identity,
    run_scale_scenario,
    scenario_params,
)

__all__ = [
    "ARRIVAL_MODELS",
    "ArrivalModel",
    "PoissonArrivals",
    "MMPPArrivals",
    "FlashCrowdArrivals",
    "arrival_model_from_params",
    "schedule_checksum",
    "TenantClass",
    "SessionTemplate",
    "CatalogEntry",
    "SessionCatalog",
    "SessionPlan",
    "default_catalog",
    "plan_concurrent_batch",
    "plan_sessions",
    "slice_plans_by_tenant",
    "ChurnDriver",
    "SessionRecord",
    "TenantAccount",
    "WorkloadReport",
    "merge_report_payloads",
    "merged_checksum",
    "ScaleScenario",
    "SCENARIOS",
    "build_service",
    "make_scale_run",
    "make_scenario",
    "partition_ids",
    "run_identity",
    "run_scale_scenario",
    "scenario_params",
    "EnvelopeProbe",
    "CapacityEnvelope",
    "estimate_envelope",
]
