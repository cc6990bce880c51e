"""Utility-based resource mapping (Section 5.2.2)."""

import copy
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    run_scale_scenario_checkpointed,
)
from repro.errors import AdmissionError, ConfigurationError
from repro.core import mapping as mapping_module
from repro.core.mapping import (
    PlacementFold,
    ResourceMapping,
    _packets_from_rates,
    best_effort_mapping,
    compute_mapping,
    even_split_mapping,
    largest_remainder_split,
    shifted_cdf,
)
from repro.core.pgos import PGOSScheduler
from repro.core.spec import StreamSpec
from repro.monitoring.cdf import EmpiricalCDF
from repro.obs.context import Observability
from repro.workload.scenarios import make_scale_run, make_scenario


def cdf(mean, std, rng, n=3000):
    return EmpiricalCDF(np.clip(mean + std * rng.standard_normal(n), 0, None))


@pytest.fixture
def two_paths(rng):
    """Path A: 50±4 (stable); path B: 30±10 (noisy)."""
    return {"A": cdf(50, 4, rng), "B": cdf(30, 10, rng)}


class TestShiftedCDF:
    def test_shift_moves_mass_down(self, gaussian_cdf):
        shifted = shifted_cdf(gaussian_cdf, 10.0)
        assert shifted.mean() == pytest.approx(gaussian_cdf.mean() - 10.0, abs=0.2)

    def test_clips_at_zero(self):
        shifted = shifted_cdf(EmpiricalCDF([5.0, 15.0]), 10.0)
        assert list(shifted.samples) == [0.0, 5.0]

    def test_zero_shift_is_identity(self, gaussian_cdf):
        assert shifted_cdf(gaussian_cdf, 0.0) is gaussian_cdf

    def test_negative_rejected(self, gaussian_cdf):
        with pytest.raises(ConfigurationError):
            shifted_cdf(gaussian_cdf, -1.0)


class TestLargestRemainder:
    def test_sums_to_total(self):
        parts = largest_remainder_split(10, [1.0, 1.0, 1.0])
        assert sum(parts) == 10

    def test_proportionality(self):
        assert largest_remainder_split(15, [9, 6]) == [9, 6]

    def test_rounding_bounded_by_one(self):
        parts = largest_remainder_split(100, [1, 2, 3, 5])
        exact = [100 * w / 11 for w in (1, 2, 3, 5)]
        assert all(abs(p - e) < 1.0 for p, e in zip(parts, exact))

    def test_zero_weights(self):
        assert largest_remainder_split(5, [0.0, 0.0]) == [5, 0]

    def test_zero_total(self):
        assert largest_remainder_split(0, [1, 2]) == [0, 0]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            largest_remainder_split(-1, [1])
        with pytest.raises(ConfigurationError):
            largest_remainder_split(1, [])
        with pytest.raises(ConfigurationError):
            largest_remainder_split(1, [-1.0])


class TestSinglePathMapping:
    def test_stream_fits_on_stable_path(self, two_paths):
        specs = [StreamSpec(name="ctl", required_mbps=20.0, probability=0.95)]
        mapping = compute_mapping(specs, two_paths, tw=1.0)
        assert mapping.paths_of("ctl") == ["A"]
        assert not mapping.is_split("ctl")
        assert mapping.achieved_probability["ctl"] >= 0.95

    def test_most_important_stream_first(self, two_paths):
        # Both fit only on the stable path alone; the P=0.99 stream is
        # placed first (highest probability wins the precedence order).
        specs = [
            StreamSpec(name="lo", required_mbps=14.0, probability=0.90),
            StreamSpec(name="hi", required_mbps=30.0, probability=0.99),
        ]
        mapping = compute_mapping(specs, two_paths, tw=1.0)
        assert mapping.paths_of("hi") == ["A"]
        assert mapping.achieved_probability["lo"] >= 0.90

    def test_total_rate_matches_requirement(self, two_paths):
        specs = [StreamSpec(name="s", required_mbps=25.0, probability=0.95)]
        mapping = compute_mapping(specs, two_paths, tw=1.0)
        assert mapping.total_rate("s") == pytest.approx(25.0)

    def test_packet_counts_cover_rate(self, two_paths):
        specs = [StreamSpec(name="s", required_mbps=25.0, probability=0.95)]
        mapping = compute_mapping(specs, two_paths, tw=1.0)
        total_packets = sum(mapping.packets["s"].values())
        assert total_packets == specs[0].packets_in_window(1.0)


class TestSplitMapping:
    def test_splits_when_no_single_path_fits(self, rng):
        paths = {"A": cdf(30, 2, rng), "B": cdf(30, 2, rng)}
        specs = [StreamSpec(name="big", required_mbps=45.0, probability=0.9)]
        mapping = compute_mapping(specs, paths, tw=1.0)
        assert mapping.is_split("big")
        assert mapping.total_rate("big") == pytest.approx(45.0)
        assert mapping.achieved_probability["big"] >= 0.9

    def test_infeasible_raises_admission_error(self, rng):
        paths = {"A": cdf(10, 2, rng), "B": cdf(10, 2, rng)}
        specs = [StreamSpec(name="huge", required_mbps=80.0, probability=0.95)]
        with pytest.raises(AdmissionError) as excinfo:
            compute_mapping(specs, paths, tw=1.0)
        assert excinfo.value.stream_name == "huge"


class TestElasticMapping:
    def test_elastic_gets_leftover_on_both_paths(self, two_paths):
        specs = [
            StreamSpec(name="ctl", required_mbps=20.0, probability=0.95),
            StreamSpec(name="bulk", elastic=True, nominal_mbps=40.0),
        ]
        mapping = compute_mapping(specs, two_paths, tw=1.0)
        assert set(mapping.paths_of("bulk")) == {"A", "B"}
        # Leftover mean: (50-20) + 30 = 60-ish.
        assert mapping.total_rate("bulk") == pytest.approx(60.0, rel=0.15)

    def test_two_elastic_share_by_weight(self, two_paths):
        specs = [
            StreamSpec(name="e1", elastic=True, nominal_mbps=30.0),
            StreamSpec(name="e2", elastic=True, nominal_mbps=10.0),
        ]
        mapping = compute_mapping(specs, two_paths, tw=1.0)
        assert mapping.total_rate("e1") / mapping.total_rate(
            "e2"
        ) == pytest.approx(3.0, rel=0.01)

    def test_guaranteed_elastic_gets_both(self, two_paths):
        specs = [
            StreamSpec(
                name="video",
                required_mbps=5.0,
                probability=0.95,
                elastic=True,
                nominal_mbps=20.0,
            ),
        ]
        mapping = compute_mapping(specs, two_paths, tw=1.0)
        # Reserved 5 Mbps plus an elastic share on top.
        assert mapping.total_rate("video") > 5.0
        assert mapping.achieved_probability["video"] >= 0.95


class TestViolationBoundMapping:
    def test_single_path_within_bound(self, two_paths):
        specs = [
            StreamSpec(name="vb", required_mbps=20.0, max_violation_rate=0.05)
        ]
        mapping = compute_mapping(specs, two_paths, tw=1.0)
        assert mapping.achieved_violation_rate["vb"] <= 0.05
        assert mapping.total_rate("vb") >= 20.0

    def test_split_reduces_violations(self, rng):
        paths = {"A": cdf(28, 3, rng), "B": cdf(28, 3, rng)}
        specs = [
            StreamSpec(name="vb", required_mbps=40.0, max_violation_rate=0.10)
        ]
        mapping = compute_mapping(specs, paths, tw=1.0)
        assert mapping.is_split("vb")
        assert mapping.achieved_violation_rate["vb"] <= 0.10

    def test_impossible_bound_raises(self, rng):
        paths = {"A": cdf(10, 3, rng)}
        specs = [
            StreamSpec(name="vb", required_mbps=50.0, max_violation_rate=0.01)
        ]
        with pytest.raises(AdmissionError):
            compute_mapping(specs, paths, tw=1.0)


class TestEvenSplitMapping:
    def test_even_shares(self, two_paths):
        specs = [StreamSpec(name="s", required_mbps=20.0, probability=0.95)]
        mapping = even_split_mapping(specs, two_paths, tw=1.0)
        assert mapping.rate("s", "A") == pytest.approx(10.0)
        assert mapping.rate("s", "B") == pytest.approx(10.0)

    def test_guarantee_reported_with_union_bound(self, two_paths):
        specs = [StreamSpec(name="s", required_mbps=20.0, probability=0.95)]
        mapping = even_split_mapping(specs, two_paths, tw=1.0)
        assert 0.0 <= mapping.achieved_probability["s"] <= 1.0


class TestCompile:
    def test_mapping_compiles_to_schedule(self, two_paths):
        specs = [
            StreamSpec(name="ctl", required_mbps=10.0, probability=0.95),
            StreamSpec(name="bulk", elastic=True, nominal_mbps=20.0),
        ]
        mapping = compute_mapping(specs, two_paths, tw=1.0)
        schedule = mapping.compile(
            stream_order=["ctl", "bulk"], path_order=["A", "B"]
        )
        assert schedule.packets_for("ctl") == sum(
            mapping.packets["ctl"].values()
        )
        # Best-effort traffic is rule-3 "unscheduled": not in the vectors.
        assert schedule.packets_for("bulk") == 0
        full = mapping.compile(
            stream_order=["ctl", "bulk"],
            path_order=["A", "B"],
            include_best_effort=True,
        )
        assert full.total_packets == sum(
            sum(p.values()) for p in mapping.packets.values()
        )

    def test_requires_path_cdfs(self):
        with pytest.raises(ConfigurationError):
            compute_mapping(
                [StreamSpec(name="s", required_mbps=1.0)], {}, tw=1.0
            )

    def test_invalid_tw(self, two_paths):
        with pytest.raises(ConfigurationError):
            compute_mapping(
                [StreamSpec(name="s", required_mbps=1.0)], two_paths, tw=0.0
            )


def as_items(table):
    """A nested dict as item lists: an equality that sees order too."""
    return [(k, list(v.items())) for k, v in table.items()]


@pytest.fixture
def table_builds(monkeypatch):
    """Packet tables built: the stream counts of each table, in order."""
    builds = []

    def counting(specs, rates, tw):
        builds.append(len(rates))
        return _packets_from_rates(specs, rates, tw)

    monkeypatch.setattr(mapping_module, "_packets_from_rates", counting)
    return builds


@pytest.fixture
def constructed(monkeypatch):
    """Every rates table a mapping was handed or derived on first read,
    with a copy of it at birth."""
    made = []
    init = ResourceMapping.__init__
    derive = mapping_module._solved_rates

    def recording(self, rates_mbps, *args, **kwargs):
        init(self, rates_mbps, *args, **kwargs)
        if rates_mbps is not None:  # else a solve's, derived on read
            made.append((rates_mbps, copy.deepcopy(rates_mbps)))

    def deriving(*args):
        rates = derive(*args)
        made.append((rates, copy.deepcopy(rates)))
        return rates

    monkeypatch.setattr(ResourceMapping, "__init__", recording)
    monkeypatch.setattr(mapping_module, "_solved_rates", deriving)
    return made


class TestLazyPacketTable:
    """A solve hands over its rates; the packet table waits for a reader."""

    SPECS = (
        StreamSpec(name="ctl", required_mbps=20.0, probability=0.95),
        StreamSpec(
            name="vb",
            required_mbps=10.0,
            max_violation_rate=0.05,
            packet_size=1000,
        ),
        StreamSpec(name="bulk", elastic=True, nominal_mbps=40.0),
        StreamSpec(
            name="fill", elastic=True, nominal_mbps=10.0, packet_size=500
        ),
    )

    def test_late_read_equals_the_table_at_solve_time(self, two_paths):
        specs = list(self.SPECS)
        fold = PlacementFold()
        mapping = compute_mapping(specs, two_paths, tw=1.0, fold=fold)
        expected = as_items(
            _packets_from_rates(list(specs), mapping.rates_mbps, 1.0)
        )
        rates = copy.deepcopy(mapping.rates_mbps)
        # The caller's list moves on: a stream joins, one leaves, one is
        # replaced by an equal-named spec with other packets ...
        specs.append(
            StreamSpec(name="late", required_mbps=5.0, probability=0.9)
        )
        del specs[0]
        specs[2] = replace(specs[2], packet_size=200)
        # ... and the same fold solves again.
        compute_mapping(specs, two_paths, tw=1.0, fold=fold)
        assert as_items(mapping.packets) == expected
        assert mapping.is_split("bulk")
        assert as_items(mapping.rates_mbps) == as_items(rates)

    def test_table_is_built_once_per_mapping(self, two_paths, table_builds):
        mapping = compute_mapping(self.SPECS, two_paths, tw=1.0)
        assert table_builds == []
        table = mapping.packets
        mapping.paths_of("bulk")
        mapping.is_split("ctl")
        mapping.compile(include_best_effort=True)
        assert mapping.packets is table
        assert table_builds == [len(self.SPECS)]

    def test_best_effort_mapping_is_lazy_too(self, rng, table_builds):
        paths = {"A": cdf(10, 2, rng), "B": cdf(10, 2, rng)}
        specs = [
            StreamSpec(name="huge", required_mbps=80.0, probability=0.95),
            StreamSpec(name="bulk", elastic=True, nominal_mbps=10.0),
        ]
        mapping = best_effort_mapping(specs, paths, tw=1.0)
        assert table_builds == []
        assert mapping.paths_of("huge")
        assert table_builds == [2]

    def test_explicit_table_is_never_rebuilt(self, two_paths, table_builds):
        mapping = even_split_mapping(self.SPECS, two_paths, tw=1.0)
        assert set(mapping.packets) == {s.name for s in self.SPECS}
        assert table_builds == []

    def test_rates_are_derived_on_first_read(self, two_paths, monkeypatch):
        """A solve's rates wait for a reader and are derived once, and
        the fold that solved counts the derivation; the mapping keeps
        the solve's placements, which delivery reads instead."""
        derived = []
        derive = mapping_module._solved_rates

        def counting(*args):
            derived.append(args)
            return derive(*args)

        monkeypatch.setattr(mapping_module, "_solved_rates", counting)
        fresh = compute_mapping(self.SPECS, two_paths, tw=1.0)
        assert derived == []
        rates = fresh.rates_mbps
        assert fresh.rates_mbps is rates
        assert len(derived) == 1
        assert fresh.placements.fold.rate_derivations == 1
        assert list(rates) == ["ctl", "vb", "bulk", "fill"]

    def test_weightless_elastic_spec_is_refused_by_the_solve(
        self, two_paths
    ):
        """Not by the first reader of the rates, which may never come."""
        specs = [
            StreamSpec(name="ctl", required_mbps=5.0, probability=0.9),
            StreamSpec(name="e", elastic=True),
        ]
        with pytest.raises(ConfigurationError, match="weight"):
            compute_mapping(specs, two_paths, tw=1.0)

    def test_table_or_specs_exactly_one(self):
        with pytest.raises(ConfigurationError):
            ResourceMapping(rates_mbps={})
        with pytest.raises(ConfigurationError):
            ResourceMapping(rates_mbps={}, packets={}, specs=())

    def seeded_scheduler(self, rng, **kwargs):
        scheduler = PGOSScheduler(**kwargs)
        scheduler.setup(list(self.SPECS), ["A", "B"], dt=0.1, tw=1.0)
        scheduler.seed_history(
            {
                "A": np.clip(50 + 4 * rng.standard_normal(200), 0, None),
                "B": np.clip(30 + 10 * rng.standard_normal(200), 0, None),
            }
        )
        scheduler.remap()
        return scheduler

    def restored(self, state, specs, **kwargs):
        restored = PGOSScheduler(**kwargs)
        restored.setup(list(self.SPECS), ["A", "B"], dt=0.1, tw=1.0)
        restored.load_state_dict(state, specs)
        return restored

    def test_restored_mapping_builds_an_equal_table_on_first_read(
        self, rng, table_builds
    ):
        scheduler = self.seeded_scheduler(rng)
        state = json.loads(json.dumps(scheduler.state_dict()))
        assert state["mapping"]["packets"] is None
        assert table_builds == []
        restored = self.restored(state, scheduler.streams)
        assert restored.state_dict()["mapping"] == state["mapping"]
        assert table_builds == []
        assert as_items(restored.mapping.packets) == as_items(
            scheduler.mapping.packets
        )
        assert table_builds == [len(self.SPECS)] * 2

    def test_an_even_split_table_is_saved(self, rng, table_builds):
        """An even split's table is not its rates' apportionment, so it
        is the one table a snapshot carries."""
        scheduler = self.seeded_scheduler(rng, split_strategy="even")
        state = json.loads(json.dumps(scheduler.state_dict()))
        restored = self.restored(
            state, scheduler.streams, split_strategy="even"
        )
        assert as_items(restored.mapping.packets) == as_items(
            scheduler.mapping.packets
        )
        assert restored.state_dict()["mapping"] == state["mapping"]
        assert table_builds == []

    def test_churn_run_builds_no_table_and_edits_no_rates(
        self, table_builds, constructed
    ):
        """Untraced, a churn run derives no rates table (delivery reads
        the placements); traced, the remap trace derives one per remap,
        and no table is edited after it was handed over or derived."""
        scenario = make_scenario("baseline", duration=20.0)
        driver = make_scale_run(scenario, seed=0, max_sessions=40)
        report = driver.run(scenario.duration)
        assert report.offered == 40
        assert constructed == []
        assert driver.service._admission.fold.rate_derivations == 0
        driver = make_scale_run(
            scenario, seed=0, max_sessions=40, obs=Observability()
        )
        traced = driver.run(scenario.duration)
        assert traced.checksum() == report.checksum()
        assert len(constructed) > 40
        assert table_builds == []
        for rates, at_birth in constructed:
            assert as_items(rates) == as_items(at_birth)

    def test_checkpointing_builds_no_table(
        self, tmp_path, monkeypatch, table_builds
    ):
        saved = []
        state_dict = PGOSScheduler.state_dict

        def recording(self):
            if self.mapping is not None and not any(
                m is self.mapping for m in saved
            ):
                saved.append(self.mapping)
            return state_dict(self)

        monkeypatch.setattr(PGOSScheduler, "state_dict", recording)
        run_scale_scenario_checkpointed(
            make_scenario("baseline", duration=8.0),
            CheckpointStore(tmp_path),
            seed=0,
            max_sessions=40,
            config=CheckpointConfig(every_s=1.0),
            fingerprint="a" * 64,
        )
        assert len(saved) > 1
        assert table_builds == []
