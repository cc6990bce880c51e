"""Built-in spec suites: the runs the repo's evaluation is made of.

:func:`figure_suite` is the declarative form of "regenerate
EXPERIMENTS.md": one :class:`RunSpec` per figure, each pinning the
canonical seed its recorded numbers were produced with, so runner
output is byte-identical to ``python -m repro.harness <figure>``.
:func:`chaos_spec` adds the canonical seeded chaos campaign, and
:func:`scale_suite` adds the multi-tenant churn scenarios plus the
baseline capacity envelope from :mod:`repro.workload`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.harness.figures import CANONICAL_SEEDS, FIGURES
from repro.runner.spec import RunSpec


def figure_spec(
    name: str,
    *,
    fast: bool = False,
    seed: Optional[int] = None,
) -> RunSpec:
    """Spec for one figure; ``seed=None`` pins the canonical seed."""
    if name not in FIGURES:
        raise ConfigurationError(
            f"unknown figure {name!r}; known: {sorted(FIGURES)}"
        )
    params = {"figure": name}
    if fast:
        params["fast"] = True
    return RunSpec(
        kind="figure",
        name=name if not fast else f"{name}-fast",
        params=params,
        seed=seed if seed is not None else CANONICAL_SEEDS[name],
    )


def figure_suite(
    figures: Optional[Sequence[str]] = None,
    *,
    fast: bool = False,
    seed: Optional[int] = None,
) -> list[RunSpec]:
    """Specs for ``figures`` (default: every figure, sorted by name)."""
    names = sorted(FIGURES) if figures is None else list(figures)
    return [figure_spec(n, fast=fast, seed=seed) for n in names]


def chaos_spec(
    *, seed: int = 7, duration: float = 80.0
) -> RunSpec:
    """The canonical seeded chaos campaign as a spec."""
    return RunSpec(
        kind="chaos",
        name=f"chaos-s{seed}",
        params={"duration": duration},
        seed=seed,
    )


def _topo_slug(topology: str) -> str:
    """Filesystem/name-safe form of a topology reference."""
    return topology.replace(":", "+")


def workload_spec(
    scenario: str,
    *,
    seed: int = 0,
    rate_scale: float = 1.0,
    duration: Optional[float] = None,
    max_sessions: Optional[int] = None,
    topology: Optional[str] = None,
) -> RunSpec:
    """One churn scenario (see :mod:`repro.workload`) as a spec.

    ``topology`` (a :mod:`repro.topo` preset reference) joins the params
    — and so the spec's content hash — only when set, keeping every
    pre-existing Figure-8 spec hash (and its checkpoint slot) stable.
    """
    params: dict = {"scenario": scenario}
    if rate_scale != 1.0:
        params["rate_scale"] = rate_scale
    if duration is not None:
        params["duration"] = duration
    if max_sessions is not None:
        params["max_sessions"] = max_sessions
    if topology is not None:
        params["topology"] = topology
    name = f"workload-{scenario}-s{seed}"
    if topology is not None:
        name = f"workload-{scenario}-{_topo_slug(topology)}-s{seed}"
    return RunSpec(
        kind="workload",
        name=name,
        params=params,
        seed=seed,
    )


def envelope_spec(
    scenario: str,
    *,
    seed: int = 0,
    ceiling: float = 0.05,
    iterations: int = 6,
    probe_duration: float = 30.0,
    max_sessions: Optional[int] = None,
    topology: Optional[str] = None,
) -> RunSpec:
    """One capacity-envelope search as a spec."""
    params: dict = {
        "scenario": scenario,
        "ceiling": ceiling,
        "iterations": iterations,
        "probe_duration": probe_duration,
    }
    if max_sessions is not None:
        params["max_sessions"] = max_sessions
    if topology is not None:
        params["topology"] = topology
    name = f"envelope-{scenario}-s{seed}"
    if topology is not None:
        name = f"envelope-{scenario}-{_topo_slug(topology)}-s{seed}"
    return RunSpec(
        kind="envelope",
        name=name,
        params=params,
        seed=seed,
    )


def scale_suite(*, seed: int = 0, fast: bool = False) -> list[RunSpec]:
    """The scale & capacity evaluation: every scenario + one envelope.

    ``fast`` truncates each scenario's plan and shortens the envelope
    search (fewer, shorter probes) — same structure, CI-friendly.
    """
    from repro.workload import SCENARIOS

    max_sessions = 120 if fast else None
    specs = [
        workload_spec(name, seed=seed, max_sessions=max_sessions)
        for name in sorted(SCENARIOS)
    ]
    specs.append(
        envelope_spec(
            "baseline",
            seed=seed,
            iterations=2 if fast else 6,
            probe_duration=15.0 if fast else 30.0,
            max_sessions=max_sessions,
        )
    )
    return specs


#: The topology presets (one per generator family) the topo suite and
#: CI's topo-smoke job exercise.
TOPO_SUITE_PRESETS = ("fat_tree_k4", "leaf_spine_4x8", "repetita_wan_s0")


def topo_suite(
    *,
    seed: int = 0,
    fast: bool = False,
    topologies: Optional[Sequence[str]] = None,
    traffic: Optional[Sequence[str]] = None,
) -> list[RunSpec]:
    """The generated-topology evaluation: churn + envelope per preset.

    One baseline churn run and one capacity-envelope search per
    topology reference; ``traffic`` appends ``preset:traffic`` variants
    of the *first* preset (the datacenter traffic-shift comparison).
    ``fast`` truncates plans and shortens the envelope search exactly
    like :func:`scale_suite` does.
    """
    refs = list(
        TOPO_SUITE_PRESETS if topologies is None else topologies
    )
    if traffic:
        refs += [f"{refs[0].partition(':')[0]}:{t}" for t in traffic]
    max_sessions = 120 if fast else None
    specs: list[RunSpec] = []
    for ref in refs:
        specs.append(
            workload_spec(
                "baseline",
                seed=seed,
                max_sessions=max_sessions,
                topology=ref,
            )
        )
        specs.append(
            envelope_spec(
                "baseline",
                seed=seed,
                iterations=2 if fast else 6,
                probe_duration=15.0 if fast else 30.0,
                max_sessions=max_sessions,
                topology=ref,
            )
        )
    return specs
