"""The middleware facade: dynamic joins/leaves, upcalls, reports."""

import gc
import json
import weakref

import numpy as np
import pytest

from repro.baselines.wfq import WFQScheduler
from repro.errors import AdmissionError, ConfigurationError
from repro.core.spec import StreamSpec
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.obs.context import Observability
from tests.oracles import ScalarReferenceService


@pytest.fixture()
def service():
    testbed = make_figure8_testbed()
    realization = testbed.realize(seed=77, duration=120.0, dt=0.1)
    return IQPathsService(realization, warmup_intervals=200)


def critical(name="viz", mbps=20.0, p=0.95):
    return StreamSpec(name=name, required_mbps=mbps, probability=p)


def elastic(name="bulk", nominal=30.0):
    return StreamSpec(name=name, elastic=True, nominal_mbps=nominal)


class TestLifecycle:
    def test_open_run_report(self, service):
        handle = service.open_stream(critical())
        assert handle.open
        assert handle.achieved_probability >= 0.95
        service.advance(40.0)
        report = service.report("viz")
        assert report.mean_mbps == pytest.approx(20.0, rel=0.02)
        assert report.attainment >= 0.95

    def test_join_triggers_remap(self, service):
        service.open_stream(critical())
        service.advance(10.0)
        before = service.scheduler.remap_count
        service.open_stream(elastic())
        service.advance(10.0)
        assert service.scheduler.remap_count > before

    def test_existing_guarantee_survives_join(self, service):
        service.open_stream(critical())
        service.at(30.0, lambda: service.open_stream(elastic()))
        service.advance(60.0)
        report = service.report("viz")
        assert report.attainment >= 0.95
        # The elastic stream actually flowed after joining.
        assert service.report("bulk").mean_mbps > 10.0

    def test_leave_frees_capacity_for_elastic(self, service):
        service.open_stream(critical("viz", 25.0))
        service.open_stream(elastic())
        service.advance(20.0)
        bulk_before = service.report("bulk").mbps[-50:].mean()
        service.close_stream("viz")
        service.advance(20.0)
        bulk_after = service.report("bulk").mbps[-50:].mean()
        assert bulk_after > bulk_before + 15.0

    def test_closed_stream_stops_accumulating(self, service):
        service.open_stream(critical())
        service.advance(5.0)
        kept = service.report("viz")
        handle = service.close_stream("viz")
        assert not handle.open
        n = kept.mbps.size
        assert n == 50
        service.advance(5.0)
        assert kept.mbps.size == n
        # The close retired the stream.
        with pytest.raises(ConfigurationError, match="unknown stream 'viz'"):
            service.report("viz")

    def test_double_open_rejected(self, service):
        service.open_stream(critical())
        with pytest.raises(ConfigurationError):
            service.open_stream(critical())

    def test_close_unknown_rejected(self, service):
        with pytest.raises(ConfigurationError):
            service.close_stream("ghost")

    def test_all_closed_then_reopen(self, service):
        service.open_stream(critical())
        service.advance(5.0)
        service.close_stream("viz")
        service.advance(5.0)  # idle intervals with no open streams
        handle = service.open_stream(critical("viz2", 15.0))
        service.advance(10.0)
        assert handle.achieved_probability >= 0.95
        assert service.report("viz2").mean_mbps == pytest.approx(
            15.0, rel=0.03
        )

    def test_reports_cover_the_open_streams(self, service):
        service.open_stream(critical())
        service.open_stream(elastic())
        service.open_stream(elastic("fill"))
        service.advance(5.0)
        service.close_stream("bulk")
        service.advance(5.0)
        assert list(service.reports()) == ["viz", "fill"]
        assert list(service.handles) == ["viz", "fill"]
        # A reopened name goes to the end, as in the scheduler.
        service.open_stream(elastic())
        service.advance(1.0)
        reports = service.reports()
        assert list(reports) == ["viz", "fill", "bulk"]
        assert [s.name for s in service.scheduler.streams] == list(reports)
        assert reports["bulk"].mbps.size == 10


class TestAdmission:
    def test_infeasible_open_raises_upcall(self, service):
        service.open_stream(critical())
        with pytest.raises(AdmissionError):
            service.open_stream(critical("monster", 120.0))
        assert service.upcalls  # the upcall was recorded
        # The rejected stream is not scheduled.
        assert "monster" not in {s.name for s in service.scheduler.streams}

    def test_lenient_mode_serves_degraded(self):
        testbed = make_figure8_testbed()
        realization = testbed.realize(seed=77, duration=80.0, dt=0.1)
        service = IQPathsService(
            realization, warmup_intervals=200, strict_admission=False
        )
        service.open_stream(critical("monster", 120.0))
        assert service.upcalls
        service.advance(20.0)
        # Degraded service still moves bytes.
        assert service.report("monster").mean_mbps > 0.0

    @staticmethod
    def _traced_service(strict):
        realization = make_figure8_testbed().realize(
            seed=77, duration=80.0, dt=0.1
        )
        return IQPathsService(
            realization,
            warmup_intervals=200,
            strict_admission=strict,
            obs=Observability(),
        )

    def test_lenient_batch_that_does_not_fit_upcalls_once(self):
        """The batch names the stream admission failed on, as a single
        lenient ``open_stream`` does; it used to open the whole batch
        degraded without a word."""
        service = self._traced_service(strict=False)
        handles = service.open_streams(
            [critical("ok", 5.0), critical("monster", 500.0)]
        )
        assert [h.admitted for h in handles] == [False, False]
        assert all(h.open for h in handles)
        assert len(service.upcalls) == 1
        assert "'monster'" in service.upcalls[0]
        (event,) = service.obs.trace.events(name="admission_upcall")
        assert event.fields["stream"] == "monster"
        assert event.stream_id == service.handles["monster"].stream_id
        metrics = service.obs.metrics
        assert metrics.get("service.admission_rejections").value == 1
        assert metrics.get("admission.degraded").value == 2

    def test_strict_batch_that_does_not_fit_upcalls_and_opens_nothing(self):
        service = self._traced_service(strict=True)
        with pytest.raises(AdmissionError) as err:
            service.open_streams(
                [critical("ok", 5.0), critical("monster", 500.0)]
            )
        assert err.value.stream_name == "monster"
        assert len(service.upcalls) == 1
        assert service.upcalls[0] in str(err.value)
        assert not service.handles
        (event,) = service.obs.trace.events(name="admission_upcall")
        assert event.fields["stream"] == "monster"
        assert not service.obs.trace.events(name="stream_open")
        assert service.obs.metrics.get("admission.rejected").value == 1

    def test_ceiling_only_one_path_meets_is_refused_at_open(self, service):
        """Admission must hold RTT ceilings as the remap does: the stream
        below fits on B by bandwidth alone, but only A meets its ceiling
        and A is full.  It used to be admitted and then be unplaceable
        at the next remap (served from a degraded mapping)."""
        service.open_stream(critical("big", 40.0))
        service.advance(1.0)
        levels = service.scheduler.path_qos(service.path_names)
        assert levels["A"].rtt_ms < levels["B"].rtt_ms
        ceiling = (levels["A"].rtt_ms + levels["B"].rtt_ms) / 2.0
        ctl = StreamSpec(
            name="ctl", required_mbps=8.0, probability=0.9, max_rtt_ms=ceiling
        )
        with pytest.raises(AdmissionError):
            service.open_stream(ctl)
        service.advance(1.0)
        assert not service.scheduler.degraded

    def test_admitted_ceiling_stream_is_placeable_at_the_remap(self, service):
        service.open_stream(critical("big", 20.0))
        service.advance(1.0)  # RTT/loss are monitored from the first step
        levels = service.scheduler.path_qos(service.path_names)
        ceiling = (levels["A"].rtt_ms + levels["B"].rtt_ms) / 2.0
        handle = service.open_stream(
            StreamSpec(
                name="ctl",
                required_mbps=8.0,
                probability=0.9,
                max_rtt_ms=ceiling,
            )
        )
        service.advance(1.0)
        scheduler = service.scheduler
        assert not scheduler.degraded
        assert scheduler.mapping.paths_of("ctl") == ["A"]
        assert (
            scheduler.mapping.achieved_probability["ctl"]
            == handle.achieved_probability
        )


class TestGuaranteedElasticRefused:
    """A spec both guaranteed and elastic is refused before any state:
    delivery would file two requests for it on one path and fail at the
    next step, after the open was committed."""

    LAYERED = StreamSpec(
        name="v",
        required_mbps=5,
        probability=0.9,
        elastic=True,
        nominal_mbps=10,
    )

    @staticmethod
    def snapshot(service):
        return json.dumps(service.state_dict())

    @pytest.mark.parametrize(
        "spec",
        [
            LAYERED,
            StreamSpec(
                name="v",
                required_mbps=5,
                max_violation_rate=0.05,
                elastic=True,
                nominal_mbps=10,
            ),
        ],
    )
    def test_open_refuses_and_changes_nothing(self, service, spec):
        service.open_stream(critical())
        service.advance(1.0)
        before = self.snapshot(service)
        with pytest.raises(
            ConfigurationError, match="'v'.*base stream plus an elastic fill"
        ):
            service.open_stream(spec)
        assert self.snapshot(service) == before
        assert "v" not in service.handles
        service.advance(1.0)

    def test_refused_first_open_leaves_the_service_unbound(self, service):
        with pytest.raises(ConfigurationError):
            service.open_stream(self.LAYERED)
        assert not service._scheduler_bound
        service.open_stream(critical())
        service.advance(1.0)

    def test_batch_with_one_such_spec_commits_none(self, service):
        service.open_stream(critical())
        service.advance(1.0)
        before = self.snapshot(service)
        with pytest.raises(ConfigurationError, match="'v'"):
            service.open_streams(
                [elastic(), critical("ctl", 2.0), self.LAYERED]
            )
        assert self.snapshot(service) == before
        assert set(service.handles) == {"viz"}
        service.advance(1.0)

    def test_the_two_stream_form_is_served(self, service):
        service.open_streams(
            [critical("base", 5.0, 0.9), elastic("fill", 10.0)]
        )
        service.advance(5.0)
        assert service.report("fill").mean_mbps > 0.0


class TestReportViews:
    """A report's series is a read-only view of the service's history:
    it cannot be written through, and nothing the service does later
    changes it."""

    def test_writing_into_a_report_raises(self, service):
        service.open_stream(critical())
        service.open_stream(elastic())
        service.advance(5.0)
        closed = service.report("bulk")
        service.close_stream("bulk")
        service.advance(1.0)
        restored = IQPathsService(
            service.realization, warmup_intervals=200
        )
        restored.load_state_dict(json.loads(json.dumps(service.state_dict())))
        # Open, closed (taken before the close), restored open.
        for report in (
            service.report("viz"),
            closed,
            restored.report("viz"),
        ):
            with pytest.raises(ValueError):
                report.mbps[:] = 0.0
        assert closed.mean_mbps > 0.0
        with pytest.raises(ConfigurationError):
            restored.report("bulk")

    def test_earlier_report_keeps_its_values(self, service):
        service.open_stream(critical())
        service.open_stream(elastic())
        service.advance(5.0)
        batch = service._vec.batch
        bulk_row = batch.row("bulk")
        taken = {"open": service.report("bulk")}
        service.advance(2.0)
        taken["closed"] = service.report("bulk")
        service.close_stream("bulk")
        taken["viz"] = service.report("viz")
        expected = {key: np.array(rep.mbps) for key, rep in taken.items()}
        assert all(series.size for series in expected.values())
        service.open_stream(elastic("bulk2"))
        assert batch.row("bulk2") == bulk_row
        service.advance(2.0)
        capacity = batch.capacity
        service.open_streams(
            [elastic(f"e{i}", nominal=0.5) for i in range(capacity)]
        )
        assert batch.capacity > capacity
        service.advance(1.0)
        np.testing.assert_array_equal(
            taken["closed"].mbps, expected["closed"]
        )
        service.load_state_dict(json.loads(json.dumps(service.state_dict())))
        service.advance(1.0)
        for key, rep in taken.items():
            np.testing.assert_array_equal(rep.mbps, expected[key])


class TestLifetime:
    @pytest.mark.parametrize(
        "service_cls", [IQPathsService, ScalarReferenceService]
    )
    def test_finished_service_is_freed_without_the_cycle_collector(
        self, service_cls
    ):
        """The scheduler, monitors, profiler and delivery engine hold no
        strong reference back to the service: dropping the last outside
        reference frees the whole run at once, not at the next gc pass."""
        gc.collect()
        gc.disable()
        try:
            realization = make_figure8_testbed().realize(
                seed=77, duration=40.0, dt=0.1
            )
            service = service_cls(realization, warmup_intervals=200)
            service.open_stream(critical())
            service.open_stream(elastic())
            service.advance(5.0)
            service.close_stream("viz")
            service.advance(1.0)
            dead = [weakref.ref(service), weakref.ref(service.scheduler)]
            del service
            assert [ref() for ref in dead] == [None, None]
        finally:
            gc.enable()

    def test_clock_outliving_its_service_reads_zero(self):
        realization = make_figure8_testbed().realize(
            seed=77, duration=40.0, dt=0.1
        )
        service = IQPathsService(realization, warmup_intervals=200)
        service.open_stream(critical())
        service.advance(2.0)
        scheduler = service.scheduler
        assert scheduler._clock() == pytest.approx(2.0)
        del service
        gc.collect()
        assert scheduler._clock() == 0.0


class TestScheduling:
    def test_at_schedules_in_order(self, service):
        order = []
        service.at(5.0, lambda: order.append("b"))
        service.at(2.0, lambda: order.append("a"))
        service.advance(10.0)
        assert order == ["a", "b"]

    def test_at_in_past_rejected(self, service):
        service.advance(10.0)
        with pytest.raises(ConfigurationError):
            service.at(5.0, lambda: None)

    def test_advance_beyond_realization_rejected(self, service):
        with pytest.raises(ConfigurationError):
            service.advance(1e6)

    def test_now_advances(self, service):
        t0 = service.now
        service.advance(7.0)
        assert service.now == pytest.approx(t0 + 7.0)

    def test_report_unknown_stream(self, service):
        with pytest.raises(ConfigurationError):
            service.report("nope")


def test_non_pgos_scheduler_is_refused_at_construction():
    """The delivery engine compiles PGOS's allocation rules; any other
    scheduler is an error, never a silently different engine."""
    realization = make_figure8_testbed().realize(
        seed=77, duration=40.0, dt=0.1
    )
    with pytest.raises(ConfigurationError, match="PGOSScheduler"):
        IQPathsService(
            realization, warmup_intervals=200, scheduler=WFQScheduler()
        )
