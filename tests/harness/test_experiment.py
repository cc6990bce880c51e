"""The interval-driven experiment runner."""

import numpy as np
import pytest

from repro.apps.gridftp import DataLayout, GridFTPScheduler
from repro.apps.smartpointer import SCHEDULER_FACTORIES, smartpointer_streams
from repro.baselines.optsched import OptSchedScheduler
from repro.errors import ConfigurationError
from repro.core.pgos import PGOSScheduler
from repro.core.scheduler import (
    BUFFER_SECONDS,
    PathShareRequest,
    SchedulerBase,
    deliver_interval,
)
from repro.core.spec import StreamSpec
from repro.harness.experiment import ExperimentResult, run_schedule_experiment
from repro.units import bytes_in_interval

#: Every scheduler a figure runs through the interval step.
FIGURE_SCHEDULERS = {
    **SCHEDULER_FACTORIES,
    "GridFTP-Blocked": lambda: GridFTPScheduler(DataLayout.BLOCKED),
}


class GreedyScheduler(SchedulerBase):
    """Test double: every stream demands its full backlog on every path."""

    name = "Greedy"

    def allocate(self, interval, backlog_mbps):
        return {
            p: [
                PathShareRequest(
                    stream=s.name,
                    demand_mbps=backlog_mbps.get(s.name),
                    weight=s.weight,
                )
                for s in self.streams
            ]
            for p in self.path_names
        }


def specs():
    return [
        StreamSpec(name="cbr", required_mbps=10.0, probability=0.95),
        StreamSpec(name="fill", elastic=True, nominal_mbps=20.0),
    ]


class TestDriver:
    def test_throughput_bounded_by_availability(self, realization):
        res = run_schedule_experiment(
            GreedyScheduler(), realization, specs(), warmup_intervals=50
        )
        total = res.total_series()
        avail = sum(res.available_mbps[p] for p in res.path_names)
        assert np.all(total <= avail + 1e-6)

    def test_cbr_stream_capped_by_arrivals(self, realization):
        res = run_schedule_experiment(
            GreedyScheduler(), realization, specs(), warmup_intervals=50
        )
        cbr = res.stream_series("cbr")
        # Long-run mean cannot exceed the arrival rate.
        assert cbr.mean() <= 10.0 + 1e-6

    def test_elastic_stream_unbounded_by_arrivals(self, realization):
        res = run_schedule_experiment(
            GreedyScheduler(), realization, specs(), warmup_intervals=50
        )
        assert res.stream_series("fill").mean() > 20.0

    def test_warmup_excluded_from_results(self, realization):
        res = run_schedule_experiment(
            GreedyScheduler(), realization, specs(), warmup_intervals=100
        )
        assert res.n_intervals == realization.n_intervals - 100

    def test_invalid_warmup(self, realization):
        with pytest.raises(ConfigurationError):
            run_schedule_experiment(
                GreedyScheduler(),
                realization,
                specs(),
                warmup_intervals=realization.n_intervals,
            )

    def test_pgos_sees_warmup_history(self, realization):
        scheduler = PGOSScheduler(min_history=50)
        run_schedule_experiment(
            scheduler, realization, specs(), warmup_intervals=100
        )
        assert scheduler.has_history
        assert scheduler.remap_count >= 1

    def test_buffer_bound_drops_bytes(self, testbed):
        # A demand far beyond capacity must overflow the bounded buffer.
        realization = testbed.realize(seed=2, duration=30.0, dt=0.1)
        starved = [
            StreamSpec(name="cbr", required_mbps=500.0, probability=0.95)
        ]

        class NothingScheduler(SchedulerBase):
            name = "Nothing"

            def allocate(self, interval, backlog_mbps):
                return {p: [] for p in self.path_names}

        res = run_schedule_experiment(
            NothingScheduler(), realization, starved, warmup_intervals=10
        )
        assert res.dropped_bytes["cbr"] > 0
        assert np.all(res.stream_series("cbr") == 0.0)


class TestByteLedger:
    """Every CBR byte that arrives is delivered, dropped or still queued."""

    @pytest.mark.parametrize("name", list(FIGURE_SCHEDULERS))
    def test_cbr_bytes_balance(self, name, realization):
        scheduler = FIGURE_SCHEDULERS[name]()
        if isinstance(scheduler, OptSchedScheduler):
            scheduler.set_oracle(
                {
                    p: realization.available[p].available_mbps
                    for p in realization.path_names()
                }
            )
        # A flood no path mix can carry, so the buffer bound is exercised.
        streams = smartpointer_streams() + [
            StreamSpec(name="flood", required_mbps=200.0, probability=0.5)
        ]
        res = run_schedule_experiment(
            scheduler, realization, streams, warmup_intervals=100
        )
        assert res.dropped_bytes["flood"] > 0
        for s in streams:
            if s.demand_mbps is None:
                continue
            arrived = bytes_in_interval(s.demand_mbps, res.dt) * res.n_intervals
            limit = bytes_in_interval(s.demand_mbps, BUFFER_SECONDS)
            delivered = bytes_in_interval(
                float(res.stream_series(s.name).sum()), res.dt
            )
            ledger = delivered + res.dropped_bytes[s.name]
            assert arrived - limit <= ledger * (1 + 1e-9), s.name
            assert ledger <= arrived * (1 + 1e-9), s.name

    def test_grant_to_unknown_stream_raises(self, realization):
        class Rogue(SchedulerBase):
            name = "Rogue"

            def allocate(self, interval, backlog_mbps):
                return {
                    p: [PathShareRequest("ghost", None, 1.0)]
                    for p in self.path_names
                }

        scheduler = Rogue()
        streams = specs()
        paths = realization.path_names()
        scheduler.setup(streams, paths, dt=0.1, tw=1.0)
        with pytest.raises(ConfigurationError, match="unknown stream 'ghost'"):
            deliver_interval(
                scheduler,
                0,
                streams,
                paths,
                lambda p: 10.0,
                0.1,
                {"cbr": 0.0},
                {"cbr": 0.0},
            )


class TestExperimentResult:
    def _result(self) -> ExperimentResult:
        return ExperimentResult(
            scheduler_name="X",
            dt=0.1,
            stream_names=["a"],
            path_names=["A", "B"],
            delivered_mbps={
                "a": {"A": np.array([1.0, 2.0]), "B": np.array([0.5, 0.0])}
            },
            available_mbps={
                "A": np.array([10.0, 10.0]),
                "B": np.array([5.0, 5.0]),
            },
        )

    def test_stream_series_sums_paths(self):
        res = self._result()
        assert np.allclose(res.stream_series("a"), [1.5, 2.0])

    def test_substream_series(self):
        res = self._result()
        assert np.allclose(res.substream_series("a", "B"), [0.5, 0.0])

    def test_paths_used_filters_idle(self):
        res = self._result()
        assert res.paths_used("a") == ["A", "B"]
        assert res.paths_used("a", min_mbps=0.6) == ["A"]

    def test_times(self):
        res = self._result()
        assert np.allclose(res.times, [0.0, 0.1])

    def test_unknown_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            self._result().stream_series("ghost")
        with pytest.raises(ConfigurationError):
            self._result().substream_series("a", "C")
