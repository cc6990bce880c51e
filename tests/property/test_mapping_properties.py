"""Property-based tests: resource-mapping invariants."""

import math
import struct
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionError, ConfigurationError
from repro.core import guarantees
from repro.core.guarantees import (
    guaranteed_rate_at,
    probabilistic_guarantee,
    residual_guarantee,
    residual_rate_at,
)
from repro.core.mapping import (
    PathQoSEstimate,
    best_effort_mapping,
    compute_mapping,
    eligible_paths,
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


def key_bisect_guarantee(cdf, allocated, required):
    """The oracle of :func:`residual_guarantee`: the bisect over the
    samples under the shift's own key, one Python call per probe.  With
    nothing allocated the shift is the identity (no clip at zero)."""
    samples = cdf.sample_list()
    if allocated == 0:
        below = bisect_left(samples, required)
    else:
        below = bisect_left(
            samples, required, key=lambda s: max(s - allocated, 0.0)
        )
    return 1.0 - below / len(samples)


def assert_guarantee_exact(query):
    """The property: bit-equal to the shifted-CDF route and to the
    key bisect."""
    cdf, allocated, required = query
    got = bits(residual_guarantee(cdf, allocated, required))
    assert got == bits(
        probabilistic_guarantee(shifted_cdf(cdf, allocated), required)
    )
    assert got == bits(key_bisect_guarantee(cdf, allocated, required))


#: Queries on which the rearranged test ``s < r + a`` and the exact
#: ``s - a < r`` disagree at a boundary sample, each way, alone and in a
#: run of equal samples.
DISAGREEMENTS = {
    # 0.9 < 0.3 + 0.6000000000000001, but 0.9 - 0.3 is that residual.
    "rearranged counts too many": (
        EmpiricalCDF([0.5, 0.9, 1.5]), 0.3, 0.9 - 0.3
    ),
    "rearranged counts too many, run": (
        EmpiricalCDF([0.5] + [0.9] * 64 + [1.5]), 0.3, 0.9 - 0.3
    ),
    # 0.7 is not < 0.6 + 0.1, but 0.7 - 0.6 == 0.09999999999999998.
    "rearranged counts too few": (EmpiricalCDF([0.5, 0.7, 1.0]), 0.6, 0.1),
    "rearranged counts too few, run": (
        EmpiricalCDF([0.5] + [0.7] * 64 + [1.0]), 0.6, 0.1
    ),
    # r + a == a: the tiny requirement vanishes into the allocation,
    # while the sample at a leaves exactly 0.0 < 1e-300.
    "allocation absorbs the requirement": (
        EmpiricalCDF([1.0, 2.0, 3.0]), 2.0, 1e-300
    ),
}


def _uncorrected(samples, allocated, required):
    return bisect_left(samples, required + allocated)


def _corrected_one_way(direction):
    """The first guess corrected toward one side only."""

    def below(samples, allocated, required):
        i = bisect_left(samples, required + allocated)
        if direction == "down":
            while i and not samples[i - 1] - allocated < required:
                i -= 1
        else:
            while i < len(samples) and samples[i] - allocated < required:
                i += 1
        return i

    return below


RESIDUAL_MUTANTS = {
    "no correction": _uncorrected,
    "corrected down only": _corrected_one_way("down"),
    "corrected up only": _corrected_one_way("up"),
}


class CountingList(list):
    """A sample list that counts its element reads, C bisect's included."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class CountingCDF:
    """Stands in for an ``EmpiricalCDF``: ``residual_guarantee`` reads
    nothing but ``sample_list()``."""

    def __init__(self, samples):
        self.samples = CountingList(samples)

    def sample_list(self):
        return self.samples


class TestResidualQueries:
    @settings(max_examples=400, deadline=None)
    @given(residual_queries())
    @example((EmpiricalCDF([0.1 + 0.2, 0.3, 1.0]), 0.2, 0.1))
    @example((EmpiricalCDF([5.0, 7.5]), 0.0, 5.0))
    @example((EmpiricalCDF([5.0, 7.5]), 9.0, 0.0))
    @example((EmpiricalCDF([-2.0, -1.0, 3.0]), 0.0, 0.0))
    @example(DISAGREEMENTS["rearranged counts too many"])
    @example(DISAGREEMENTS["rearranged counts too many, run"])
    @example(DISAGREEMENTS["rearranged counts too few"])
    @example(DISAGREEMENTS["rearranged counts too few, run"])
    @example(DISAGREEMENTS["allocation absorbs the requirement"])
    def test_guarantee_equals_the_shifted_cdf_route(self, query):
        assert_guarantee_exact(query)

    @pytest.mark.parametrize("name", sorted(DISAGREEMENTS))
    def test_examples_are_disagreements(self, name):
        """Each example does sit where the rearranged test is wrong."""
        cdf, allocated, required = DISAGREEMENTS[name]
        samples = cdf.sample_list()
        assert bisect_left(samples, required + allocated) != sum(
            s - allocated < required for s in samples
        )

    @pytest.mark.parametrize("mutant", sorted(RESIDUAL_MUTANTS))
    def test_each_correction_is_needed(self, mutant, monkeypatch):
        """Mutation check: the disagreements pass on the real count and
        fail when the first guess is not corrected, or only one way."""
        for query in DISAGREEMENTS.values():
            assert_guarantee_exact(query)
        monkeypatch.setattr(
            guarantees, "_residual_below", RESIDUAL_MUTANTS[mutant]
        )
        with pytest.raises(AssertionError):
            for query in DISAGREEMENTS.values():
                assert_guarantee_exact(query)

    @pytest.mark.parametrize(
        "sample, allocated, required",
        [(0.9, 0.3, 0.9 - 0.3), (0.7, 0.6, 0.1), (2.0, 2.0, 1e-300)],
    )
    def test_equal_boundary_samples_cost_log_n_reads(
        self, sample, allocated, required
    ):
        """10^5 equal samples on the boundary: the correction skips the
        run with one more bisect instead of stepping through it."""
        n = 10**5
        cdf = CountingCDF([sample] * n)
        achieved = residual_guarantee(cdf, allocated, required)
        reads = cdf.samples.reads
        assert bits(achieved) == bits(
            key_bisect_guarantee(EmpiricalCDF([sample]), allocated, required)
        )
        assert reads <= 4 * math.ceil(math.log2(n)) + 4, reads

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


# ----------------------------------------------------------------------
# the elastic split of a solve's rates
# ----------------------------------------------------------------------
def loop_solved_rates(placed, memo, qos, elastic, total_weight):
    """The reference of ``mapping._solved_rates``: the elastic split one
    stream at a time, each stream's eligible-path fractions its own."""
    rates = {}
    for spec, shares, _, _ in placed:
        rates[spec.name] = dict(shares)
    if not elastic:
        return rates
    path_order = list(memo.cdfs)
    allocated = (
        placed[-1].allocated if placed else dict.fromkeys(path_order, 0.0)
    )
    leftover = {p: memo.leftover_mean(p, allocated[p]) for p in path_order}
    total_leftover = sum(leftover.values())
    for spec in elastic:
        share_total = (
            total_leftover * spec.weight / total_weight if total_weight else 0.0
        )
        candidates = list(eligible_paths(spec, path_order, qos))
        eligible_leftover = sum(leftover[p] for p in candidates)
        shares = {}
        for p in candidates:
            frac = leftover[p] / eligible_leftover if eligible_leftover else 0.0
            r = share_total * frac
            if r > 1e-9:
                shares[p] = r
        prior = rates.get(spec.name, {})
        for p, r in shares.items():
            prior[p] = prior.get(p, 0.0) + r
        rates[spec.name] = prior
    return rates


def hex_rates(rates):
    """Rates with their dict order and every float's bits."""
    return [
        (name, [(p, float(r).hex()) for p, r in shares.items()])
        for name, shares in rates.items()
    ]


QOS_LEVELS = st.builds(
    PathQoSEstimate,
    rtt_ms=st.sampled_from([None, 10.0, 50.0]),
    loss_rate=st.sampled_from([None, 0.001, 0.05]),
)


@st.composite
def elastic_scenarios(draw):
    """Catalog-like populations: elastic streams that share weights and
    ceilings, names given twice, a spec both guaranteed and elastic, and
    RTT/loss levels that leave some streams fewer (or no) paths."""
    cdfs = make_cdfs(
        draw(st.lists(path_params, min_size=1, max_size=3)),
        draw(st.integers(min_value=0, max_value=2**31)),
    )
    qos = draw(
        st.one_of(
            st.none(),
            st.fixed_dictionaries({p: QOS_LEVELS for p in cdfs}),
        )
    )
    specs = [
        StreamSpec(
            name=f"g{i}",
            required_mbps=draw(st.sampled_from([0.5, 2.0])),
            probability=0.9,
            elastic=draw(st.booleans()),
            nominal_mbps=5.0,
        )
        for i in range(draw(st.integers(0, 2)))
    ]
    for i in range(draw(st.integers(1, 8))):
        specs.append(
            StreamSpec(
                name=draw(st.sampled_from([f"e{i}", "e0", "g0"])),
                elastic=True,
                nominal_mbps=draw(st.sampled_from([1.0, 7.5, 30.0])),
                max_rtt_ms=draw(st.sampled_from([None, 20.0])),
                max_loss_rate=draw(st.sampled_from([None, 0.01])),
            )
        )
    return cdfs, qos, draw(st.permutations(specs))


class TestSolvedRates:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(elastic_scenarios())
    def test_rates_equal_the_per_stream_split(self, scenario):
        """Splitting once per (weight, eligible paths) and copying gives
        the per-stream loop's rates, dict order and bits included."""
        cdfs, qos, specs = scenario
        try:
            mapping = compute_mapping(specs, cdfs, tw=1.0, qos=qos)
        except AdmissionError:
            return
        solve = mapping.placements
        expected = loop_solved_rates(
            solve.placed, solve.memo, solve.qos, solve.elastic,
            solve.total_weight,
        )
        assert hex_rates(mapping.rates_mbps) == hex_rates(expected)
