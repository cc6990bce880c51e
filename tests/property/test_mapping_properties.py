"""Property-based tests: resource-mapping invariants."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionError, ConfigurationError
from repro.core.guarantees import (
    guaranteed_rate_at,
    probabilistic_guarantee,
    residual_guarantee,
    residual_rate_at,
)
from repro.core.mapping import (
    best_effort_mapping,
    compute_mapping,
    largest_remainder_split,
    shifted_cdf,
)
from repro.core.spec import StreamSpec
from repro.monitoring.cdf import EmpiricalCDF
from repro.units import packets_per_window

# Random two-path environments: (mean, std) per path, seeded samples.
path_params = st.tuples(
    st.floats(min_value=5.0, max_value=80.0),
    st.floats(min_value=0.5, max_value=15.0),
)


def make_cdfs(params, seed):
    rng = np.random.default_rng(seed)
    return {
        f"P{i}": EmpiricalCDF(
            np.clip(mean + std * rng.standard_normal(400), 0.0, None)
        )
        for i, (mean, std) in enumerate(params)
    }


spec_params = st.tuples(
    st.floats(min_value=0.5, max_value=60.0),  # required_mbps
    st.floats(min_value=0.5, max_value=0.99),  # probability
)


@st.composite
def scenarios(draw):
    paths = draw(st.lists(path_params, min_size=1, max_size=3))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    specs = []
    for i, (mbps, p) in enumerate(
        draw(st.lists(spec_params, min_size=1, max_size=3))
    ):
        specs.append(
            StreamSpec(name=f"s{i}", required_mbps=mbps, probability=p)
        )
    add_elastic = draw(st.booleans())
    if add_elastic:
        specs.append(
            StreamSpec(name="elastic", elastic=True, nominal_mbps=10.0)
        )
    return make_cdfs(paths, seed), specs


class TestMappingInvariants:
    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_admitted_mappings_are_sound(self, scenario):
        cdfs, specs = scenario
        try:
            mapping = compute_mapping(specs, cdfs, tw=1.0)
        except AdmissionError:
            return  # rejection is a legal outcome; soundness is vacuous
        for spec in specs:
            if spec.elastic:
                continue
            # Rates conserve the requirement.
            assert mapping.total_rate(spec.name) >= spec.required_mbps - 1e-6
            # The reported guarantee honours the request.
            achieved = mapping.achieved_probability[spec.name]
            assert spec.probability - 1e-9 <= achieved <= 1.0
            # Packet counts cover the required rate.
            pkts = sum(mapping.packets[spec.name].values())
            assert pkts >= spec.packets_in_window(1.0) - 1
        # No stream is mapped onto unknown paths.
        for shares in mapping.rates_mbps.values():
            assert set(shares) <= set(cdfs)

    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_best_effort_never_raises_and_is_complete(self, scenario):
        cdfs, specs = scenario
        mapping = best_effort_mapping(specs, cdfs, tw=1.0)
        for spec in specs:
            if spec.elastic:
                continue
            assert mapping.total_rate(spec.name) >= spec.required_mbps - 1e-6
            assert 0.0 <= mapping.achieved_probability[spec.name] <= 1.0

    @given(scenarios())
    @settings(max_examples=40, deadline=None)
    def test_best_effort_never_beats_honesty(self, scenario):
        """Best-effort reports at most what compute_mapping guarantees.

        When the strict mapping succeeds, its per-stream guarantees come
        from the same CDFs, so best-effort (single-path only) cannot
        report a *higher* probability for the most important stream than
        the strict mapping achieves for it.
        """
        cdfs, specs = scenario
        try:
            strict = compute_mapping(specs, cdfs, tw=1.0)
        except AdmissionError:
            return
        loose = best_effort_mapping(specs, cdfs, tw=1.0)
        first = max(
            (s for s in specs if not s.elastic),
            key=lambda s: (s.probability, s.required_mbps),
            default=None,
        )
        if first is None:
            return
        assert (
            loose.achieved_probability[first.name]
            <= strict.achieved_probability[first.name] + 1e-9
        )


def split_packets(mapping, specs):
    """``packets`` rebuilt with the general largest-remainder split for
    every stream, single-path ones included."""
    by_name = {s.name: s for s in specs}
    out = {}
    for name, shares in mapping.rates_mbps.items():
        total_rate = sum(shares.values())
        if total_rate <= 0:
            out[name] = []
            continue
        counts = largest_remainder_split(
            packets_per_window(
                total_rate, by_name[name].packet_size, mapping.tw
            ),
            list(shares.values()),
        )
        out[name] = [(p, c) for p, c in zip(shares, counts) if c > 0]
    return out


class TestPacketApportionment:
    """Single-path streams skip the array split; the result may not."""

    @given(scenarios(), st.sampled_from([0.25, 1.0, 3.0]))
    @settings(derandomize=True, max_examples=80, deadline=None)
    def test_packets_equal_the_general_split(self, scenario, tw):
        cdfs, specs = scenario
        mappings = [best_effort_mapping(specs, cdfs, tw=tw)]
        try:
            mappings.append(compute_mapping(specs, cdfs, tw=tw))
        except AdmissionError:
            pass
        for mapping in mappings:
            assert {
                name: list(counts.items())
                for name, counts in mapping.packets.items()
            } == split_packets(mapping, specs)

    @given(
        st.integers(min_value=0, max_value=10**7),
        st.floats(min_value=1e-9, max_value=1e4),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_one_positive_share_takes_everything(self, total, share):
        assert largest_remainder_split(total, [share]) == [total]


# ----------------------------------------------------------------------
# residual queries without the residual distribution
# ----------------------------------------------------------------------
#: Samples on a coarse grid and off it, so exact ties ``s - a == r``,
#: runs of equal samples and one-ulp neighbours all occur.
sample_values = st.one_of(
    st.integers(0, 40).map(lambda i: i * 0.25),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.sampled_from([0.1, 0.2, 0.3, 0.1 + 0.2, 1e-9, 1e9]),
)
sample_lists = st.lists(sample_values, min_size=1, max_size=40)


@st.composite
def residual_queries(draw):
    """(cdf, allocated, required) biased toward the edges: nothing
    allocated, everything allocated, a requirement of zero, and a
    requirement that is exactly some sample's residual."""
    samples = draw(sample_lists)
    cdf = EmpiricalCDF(samples)
    allocated = draw(
        st.one_of(
            st.just(0.0),
            sample_values,
            st.sampled_from(samples),
            st.just(max(samples) + 1.0),
        )
    )
    required = draw(
        st.one_of(
            st.just(0.0),
            sample_values,
            st.sampled_from(samples).map(lambda s: max(s - allocated, 0.0)),
        )
    )
    return cdf, allocated, required


def bits(value):
    """The float's eight bytes: tells 0.0 from -0.0, which ``==`` does not."""
    assert type(value) is float
    return struct.pack("<d", value)


class TestResidualQueries:
    @settings(max_examples=400, deadline=None)
    @given(residual_queries())
    @example((EmpiricalCDF([0.1 + 0.2, 0.3, 1.0]), 0.2, 0.1))
    @example((EmpiricalCDF([5.0, 7.5]), 0.0, 5.0))
    @example((EmpiricalCDF([5.0, 7.5]), 9.0, 0.0))
    @example((EmpiricalCDF([-2.0, -1.0, 3.0]), 0.0, 0.0))
    def test_guarantee_equals_the_shifted_cdf_route(self, query):
        cdf, allocated, required = query
        expected = probabilistic_guarantee(
            shifted_cdf(cdf, allocated), required
        )
        assert bits(residual_guarantee(cdf, allocated, required)) == bits(
            expected
        )

    @settings(max_examples=400, deadline=None)
    @given(
        residual_queries(),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @example((EmpiricalCDF([1.0, 2.0, 4.0, 8.0]), 3.0, 0.0), 0.5)
    @example((EmpiricalCDF([3.0]), 1.0, 0.0), 0.9)
    def test_rate_equals_the_shifted_cdf_route(self, query, probability):
        cdf, allocated, _ = query
        expected = guaranteed_rate_at(
            shifted_cdf(cdf, allocated), probability
        )
        assert bits(residual_rate_at(cdf, allocated, probability)) == bits(
            expected
        )

    def test_arguments_are_checked_as_the_shifted_route_checks_them(self):
        cdf = EmpiricalCDF([1.0, 2.0])
        with pytest.raises(ConfigurationError):
            residual_guarantee(cdf, -1.0, 1.0)
        with pytest.raises(ConfigurationError):
            residual_guarantee(cdf, 0.0, -1.0)
        with pytest.raises(ConfigurationError):
            residual_rate_at(cdf, -1.0, 0.5)
        with pytest.raises(ConfigurationError):
            residual_rate_at(cdf, 0.0, 1.0)
