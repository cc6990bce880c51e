"""The degradation ladder's sweep against the re-submitting reference.

:func:`repro.robustness.degradation.plan_degradation` runs its rungs as
edits of the admission controller's placement fold;
``tests/oracles/degradation_ladder.py`` asks ``try_admit`` about the
whole set on every rung.  Both plan the same sequences of stream sets,
each on a controller of its own that lives across the sequence as the
service's does, and must agree plan by plan: level, ``serve`` (values
and order), ``shed``, ``downgraded`` (order included) and ``notes``.
After each plan the next ``try_admit`` on the sweep's controller — the
remap's question, then an open's — must equal the same call on a
fresh fold: the sweep leaves its fold in a state a fresh solve agrees
with.

The draws mix probability templates whose downgrades land on another
template's key (0.9 * 0.8 is drawn as a template), violation bounds,
elastic streams, a guaranteed stream with an elastic fill, RTT ceilings
against monitored levels, one or two paths, quarantine on and off, and
between plans an open, a close or a new snapshot.  Named cases force
what the draws may miss: a hint (the partial solve fits), a strip on the
second rejection, a violation bound, a hint below ``MIN_PROBABILITY``,
the downgraded stream tied in key with the partial solve's refused
stream on either side of it in input order, and an all-elastic set.
Within a plan the rung budget (``2 * len(guaranteed) + 1``) cannot bind
— a stream is rejected twice at most and then rides elastic, and a set
of elastic streams fits — so a binding budget is forced through
:meth:`AdmissionController.renegotiate` against the reference loop.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionController
from repro.core.mapping import PathQoSEstimate, compute_mapping
from repro.core.spec import StreamSpec
from repro.errors import AdmissionError, ConfigurationError
from repro.monitoring.cdf import EmpiricalCDF
from repro.robustness.degradation import (
    MIN_PROBABILITY,
    DegradationLevel,
    plan_degradation,
)
from tests.oracles import degradation_ladder as oracle

TW = 1.0
#: A downgrade by the fallback factor from P = 0.9, as the ladder
#: computes it: a key another template shares.
P_LOWERED = 0.9 * 0.8

TEMPLATES = [
    dict(required_mbps=8.0, probability=0.9),
    dict(required_mbps=8.0, probability=P_LOWERED),
    dict(required_mbps=5.0, probability=0.99),
    dict(required_mbps=12.0, probability=0.95),
    dict(required_mbps=3.0, probability=0.5),
    dict(required_mbps=4.0, max_violation_rate=0.05),
    dict(required_mbps=6.0, max_violation_rate=0.2),
    dict(elastic=True, nominal_mbps=20.0),
    dict(required_mbps=5.0, probability=0.9, max_rtt_ms=36.0),
    dict(required_mbps=4.0, probability=0.9, elastic=True, nominal_mbps=9.0),
    dict(required_mbps=30.0, probability=0.95),
]

QOS_LEVELS = [
    None,
    {"A": PathQoSEstimate(rtt_ms=34.0), "B": PathQoSEstimate(rtt_ms=38.0)},
    {"A": PathQoSEstimate(rtt_ms=40.0), "B": PathQoSEstimate(rtt_ms=41.0)},
]


def sampled_cdf(mean, seed, std=4.0, n=400):
    rng = np.random.default_rng(seed)
    return EmpiricalCDF(np.clip(mean + std * rng.standard_normal(n), 0, None))


def as_items(mapping):
    if mapping is None:
        return None
    return (
        [(s, list(d.items())) for s, d in mapping.rates_mbps.items()],
        [(s, list(d.items())) for s, d in mapping.packets.items()],
        list(mapping.achieved_probability.items()),
        list(mapping.achieved_violation_rate.items()),
    )


def decision_items(decision):
    return (
        decision.admitted,
        decision.rejected_stream,
        decision.reason,
        decision.suggested_probability,
        decision.admitted_streams,
        as_items(decision.mapping),
    )


def plan_items(plan):
    return (
        plan.level,
        plan.serve,
        plan.shed,
        list(plan.downgraded.items()),
        plan.notes,
    )


class Ladders:
    """The sweep and the reference, each on a controller kept across
    plans; the sweep hands each plan the one before it, as the service
    does."""

    def __init__(self):
        self.sweep = AdmissionController(tw=TW)
        self.reference = AdmissionController(tw=TW)
        self.previous = None
        self.log: list = []

    def plan(self, specs, cdfs, quarantine, qos=None):
        expected = oracle.plan_degradation(
            specs, cdfs, TW, quarantine_active=quarantine,
            admission=self.reference, qos=qos, log=self.log,
        )
        plan = plan_degradation(
            specs, cdfs, TW, quarantine_active=quarantine,
            admission=self.sweep, qos=qos, previous=self.previous,
        )
        assert plan_items(plan) == plan_items(expected)
        self.previous = plan
        # The remap's question, then an open's: the fold the sweep left
        # answers as a fresh one.
        extra = StreamSpec(name="next", required_mbps=6.0, probability=0.9)
        for question in (list(plan.serve), list(specs) + [extra]):
            assert decision_items(
                self.sweep.try_admit(question, cdfs, qos)
            ) == decision_items(
                AdmissionController(tw=TW).try_admit(question, cdfs, qos)
            )
        return plan


def refused_without(submitted, name, cdfs, qos):
    """The stream the partial solve after rejecting ``name`` refuses."""
    others = [s for s in submitted if s.name != name]
    try:
        compute_mapping(others, cdfs, TW, qos=qos)
    except AdmissionError as exc:
        return next(s for s in others if s.name == exc.stream_name)
    return None


def coverage(log, cdfs, qos=None):
    """What the reference ladder's rungs exercised."""
    seen = set()
    rejected: dict[str, int] = {}
    for submitted, name, hint, new in log:
        spec = next(s for s in submitted if s.name == name)
        rejected[name] = rejected.get(name, 0) + 1
        if hint is not None:
            seen.add("hint")
            if hint < MIN_PROBABILITY:
                seen.add("hint below min")
        if spec.probability is None:
            seen.add("violation bound")
        if rejected[name] == 2 and new.elastic:
            seen.add("strip on second rejection")
        partial = refused_without(submitted, name, cdfs, qos)
        if (
            partial is not None
            and new.mapping_precedence == partial.mapping_precedence
        ):
            names = [s.name for s in submitted]
            side = names.index(partial.name) < names.index(name)
            seen.add(f"tie, refused {'before' if side else 'after'} in input")
    return seen


# ----------------------------------------------------------------------
# drawn sequences
# ----------------------------------------------------------------------
@st.composite
def programs(draw):
    two_paths = draw(st.booleans())
    means = {"A": draw(st.sampled_from([14.0, 20.0, 28.0]))}
    if two_paths:
        means["B"] = draw(st.sampled_from([10.0, 18.0]))
    qos = draw(st.sampled_from(QOS_LEVELS)) if two_paths else None
    templates = draw(
        st.lists(
            st.integers(0, len(TEMPLATES) - 1), min_size=0, max_size=9
        )
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["plan", "open", "close", "sample", "flip"]),
                st.integers(0, 63),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return means, qos, templates, draw(st.booleans()), steps


def run_program(means, qos, templates, quarantine, steps):
    ladders = Ladders()
    samples = iter(range(1, 1000))
    cdfs = {p: sampled_cdf(m, next(samples)) for p, m in means.items()}
    specs = [
        StreamSpec(name=f"s{i}", **TEMPLATES[t])
        for i, t in enumerate(templates)
    ]
    opened = len(specs)
    ladders.plan(specs, cdfs, quarantine, qos)
    for op, arg in steps:
        if op == "open":
            specs.append(
                StreamSpec(name=f"s{opened}", **TEMPLATES[arg % len(TEMPLATES)])
            )
            opened += 1
        elif op == "close" and specs:
            del specs[arg % len(specs)]
        elif op == "sample":
            path = sorted(cdfs)[arg % len(cdfs)]
            cdfs = dict(cdfs)
            cdfs[path] = sampled_cdf(
                means[path] * (1.0, 0.7)[arg // 2 % 2], next(samples)
            )
        elif op == "flip":
            quarantine = not quarantine
        ladders.plan(specs, cdfs, quarantine, qos)
    return ladders


@settings(derandomize=True, max_examples=200, deadline=None)
@given(programs())
def test_sweep_plans_as_the_reference_ladder(program):
    run_program(*program)


# ----------------------------------------------------------------------
# forced cases
# ----------------------------------------------------------------------
def spec(name, rate, p=None, **more):
    return StreamSpec(name=name, required_mbps=rate, probability=p, **more)


ONE_PATH = {"A": sampled_cdf(20.0, 5)}

#: name -> (specs, what the reference ladder must exercise).  The path
#: carries about 18 Mbps beside the filler with P ~0.69 and 27 Mbps
#: with P ~0.04; the filler fits alone.
CASES = {
    # Without x the filler fits: the hint is x's best offer beside it.
    "hint": (
        [spec("fill", 8.0, 0.99), spec("x", 10.0, 0.9)],
        {"hint"},
    ),
    # x's best offer beside the filler is a few samples out of 400.
    "hint below min": (
        [spec("fill", 8.0, 0.99), spec("x", 19.0, 0.9)],
        {"hint", "hint below min"},
    ),
    # Neither fits beside the filler, so no hint: z and x are lowered
    # by the fallback factor in turn and refused again.
    "strip on second rejection": (
        [
            spec("fill", 8.0, 0.99),
            spec("x", 10.0, 0.9),
            spec("z", 10.0, 0.95),
        ],
        {"strip on second rejection"},
    ),
    "violation bound": (
        [
            spec("fill", 8.0, 0.99),
            StreamSpec(name="v", required_mbps=10.0, max_violation_rate=0.01),
        ],
        {"violation bound"},
    ),
    # x's downgrade lands on y's key: y stands ahead of x in the input
    # (the next rung refuses y again) ...
    "tie, partial's refused before": (
        [
            spec("fill", 8.0, 0.99),
            spec("y", 10.0, P_LOWERED),
            spec("x", 10.0, 0.9),
        ],
        {"tie, refused before in input"},
    ),
    # ... or behind it (the next rung places x first, and refuses it).
    "tie, partial's refused after": (
        [
            spec("fill", 8.0, 0.99),
            spec("x", 10.0, 0.9),
            spec("y", 10.0, P_LOWERED),
        ],
        {"tie, refused after in input", "strip on second rejection"},
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("quarantine", [False, True])
def test_forced_case(case, quarantine):
    specs, expected = CASES[case]
    specs = specs + [StreamSpec(name="bulk", elastic=True, nominal_mbps=20.0)]
    ladders = Ladders()
    plan = ladders.plan(specs, ONE_PATH, quarantine)
    assert plan.level is DegradationLevel.DOWNGRADED
    assert expected <= coverage(ladders.log, ONE_PATH)
    # The same set again reuses the lowered specs of the plan before.
    again = ladders.plan(specs, ONE_PATH, quarantine)
    assert all(map(lambda a, b: a is b, again.serve, plan.serve))


@pytest.mark.parametrize("quarantine", [False, True])
def test_all_elastic_set(quarantine):
    specs = [
        StreamSpec(name=f"e{i}", elastic=True, nominal_mbps=5.0 * (i + 1))
        for i in range(3)
    ]
    plan = Ladders().plan(specs, ONE_PATH, quarantine)
    assert plan.level is (
        DegradationLevel.SHED_ELASTIC if quarantine else DegradationLevel.NORMAL
    )


def lowering_policy():
    """A rung policy with its own memory: the hint if it lowers P, else
    P * 0.8; a violation bound or a second rejection rides elastic."""
    rejections: dict[str, int] = {}

    def rung(spec: StreamSpec, hint: Optional[float]) -> StreamSpec:
        rejections[spec.name] = rejections.get(spec.name, 0) + 1
        if rejections[spec.name] > 1 or spec.probability is None:
            return StreamSpec(
                name=spec.name, elastic=True, nominal_mbps=spec.required_mbps
            )
        p = hint if hint is not None and hint < spec.probability else (
            spec.probability * 0.8
        )
        return StreamSpec(
            name=spec.name, required_mbps=spec.required_mbps, probability=p
        )

    return rung


@pytest.mark.parametrize("budget", range(1, 7))
def test_binding_rung_budget(budget):
    """The budget ends the sweep between rungs: the specs it returns and
    the fold it leaves match the reference loop cut at the same rung."""
    specs = [
        spec("fill", 8.0, 0.99),
        spec("x", 10.0, 0.9),
        spec("y", 10.0, P_LOWERED),
        spec("z", 10.0, 0.95),
        StreamSpec(name="v", required_mbps=6.0, max_violation_rate=0.01),
    ]
    sweep = AdmissionController(tw=TW)
    got = sweep.renegotiate(specs, ONE_PATH, None, lowering_policy(), budget)
    expected = oracle.renegotiate(
        AdmissionController(tw=TW), specs, ONE_PATH, None,
        lowering_policy(), budget,
    )
    assert got == expected
    # Five rungs are not enough for the set to fit: the budget binds.
    assert AdmissionController(tw=TW).fits(got, ONE_PATH) is (budget > 5)
    assert decision_items(sweep.try_admit(got, ONE_PATH)) == decision_items(
        AdmissionController(tw=TW).try_admit(got, ONE_PATH)
    )


def test_a_rung_that_raises_leaves_a_sound_fold():
    """The fold is mid-edit while a rung runs; a rung that raises
    leaves it empty, and the next solve on it answers as a fresh one."""
    specs = CASES["strip on second rejection"][0]
    policy = lowering_policy()
    calls = []

    def failing(spec, hint):
        calls.append(spec.name)
        if len(calls) == 2:
            raise RuntimeError("policy failed")
        return policy(spec, hint)

    controller = AdmissionController(tw=TW)
    with pytest.raises(RuntimeError, match="policy failed"):
        controller.renegotiate(specs, ONE_PATH, None, failing, 5)
    for question in (specs, specs[:2]):
        assert decision_items(
            controller.try_admit(question, ONE_PATH)
        ) == decision_items(
            AdmissionController(tw=TW).try_admit(question, ONE_PATH)
        )


def test_tw_must_match_the_controller():
    specs = [spec("x", 8.0, 0.9)]
    with pytest.raises(ConfigurationError, match="tw"):
        plan_degradation(
            specs, ONE_PATH, 0.5, admission=AdmissionController(tw=TW)
        )
    plan_degradation(specs, ONE_PATH, TW, admission=AdmissionController(tw=TW))
