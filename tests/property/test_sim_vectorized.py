"""Differential battery: vectorized SoA delivery core vs the scalar loop.

The delivery engine's contract is **bit-identity**, not approximate
agreement: for any seeded scenario, every observable artifact — workload
report checksums, trace digests, metrics digests, checkpoint snapshot
digests, merged cluster payloads — must be ``==`` to what the original
scalar per-stream loop produces.  That loop lives on as the test oracle
:class:`tests.oracles.ScalarReferenceService`; Hypothesis drives it and
the product through identical seeded scenarios (churn, an
oversubscribed steady batch, flash-crowd chaos, mid-run faults,
checkpoint cuts with oracle<->product resume, shard-sliced equivalents)
and compares bytes, never tolerances.

``derandomize=True`` keeps the battery reproducible run-to-run: it
*gates* the repo's byte-identity claims (golden suite, crash-resume,
cluster determinism all run on the engine), so it must itself be
deterministic.
"""

import hashlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.smartpointer import smartpointer_streams
from repro.cluster.local import run_partitioned
from repro.core import scheduler
from repro.core.pgos import LEVEL_SCHEDULED_ELSEWHERE, LEVEL_SCHEDULED_HERE
from repro.core.scheduler import water_fill
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed
from repro.network.faults import FaultCampaign, correlated_outage
from repro.obs.context import Observability
from repro.runner.cache import payload_digest
from repro.transport.session import run_packet_session
from repro.workload.catalog import default_catalog, plan_concurrent_batch
from repro.workload.scenarios import (
    make_scale_run,
    make_scenario,
    run_scale_scenario,
)
from tests.oracles import ScalarReferenceService, service_class

CHURN_SCENARIOS = ["baseline", "diurnal", "flash-crowd"]


def _trace_digest(obs: Observability) -> str:
    payload = "".join(e.to_json() + "\n" for e in obs.trace)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _run(cls, name: str, **kwargs):
    """One scenario run on service class ``cls``."""
    with service_class(cls):
        return run_scale_scenario(make_scenario(name), **kwargs)


def _observed_run(cls, name: str, seed: int, max_sessions: int):
    """One scenario run with full observability; returns its artifacts."""
    obs = Observability()
    report = _run(
        cls, name, seed=seed, max_sessions=max_sessions, obs=obs
    )
    return (
        report.checksum(),
        _trace_digest(obs),
        payload_digest(obs.metrics.to_dict()),
    )


class TestChurnIdentity:
    """Same seed, oracle or product: the workload report bytes agree."""

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(
        st.sampled_from(CHURN_SCENARIOS),
        st.integers(min_value=0, max_value=9),
    )
    def test_report_checksums_equal(self, name, seed):
        scalar = _run(
            ScalarReferenceService, name, seed=seed, max_sessions=30
        )
        vectorized = _run(IQPathsService, name, seed=seed, max_sessions=30)
        assert scalar.checksum() == vectorized.checksum()

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=9))
    def test_flash_crowd_chaos_full_artifacts(self, seed):
        """Chaos (shed + downgrade + faults): reports, traces, metrics."""
        scalar = _observed_run(
            ScalarReferenceService, "flash-crowd-chaos", seed, 40
        )
        vectorized = _observed_run(
            IQPathsService, "flash-crowd-chaos", seed, 40
        )
        assert scalar == vectorized


class TestSteadyBatch:
    """One ``open_streams`` batch, then ``advance`` only: the path where
    delivery does all the work, with no churn in between."""

    STREAMS = 150
    STEPS = 400

    def _run(self, cls, specs):
        realization = make_figure8_testbed().realize(
            seed=3, duration=self.STEPS * 0.1 + 15.0, dt=0.1
        )
        service = cls(
            realization, warmup_intervals=100, strict_admission=True
        )
        service.open_streams(specs)
        service.advance(self.STEPS * 0.1)
        return payload_digest(
            {
                name: [report.mbps.tobytes().hex(), report.attainment]
                for name, report in service.reports().items()
            }
        )

    def test_oversubscribed_batch_report_digests_equal(self):
        # Loaded past what every guarantee's mapped share can carry:
        # rule-1 requests are cut short, backlogs spill onto the other
        # path as rule-2 requests, and the elastic streams (no demand)
        # take whatever is left.
        specs = plan_concurrent_batch(default_catalog(1.6), self.STREAMS, 3)
        seen = {"spill": 0, "short": 0}

        def spy(requests, capacity):
            granted = water_fill(requests, capacity)
            for r in requests:
                if r.level == LEVEL_SCHEDULED_ELSEWHERE:
                    seen["spill"] += 1
                elif r.level == LEVEL_SCHEDULED_HERE and (
                    granted[r.stream] < r.demand_mbps
                ):
                    seen["short"] += 1
            return granted

        with mock.patch.object(scheduler, "water_fill", spy):
            scalar = self._run(ScalarReferenceService, specs)
        assert seen["spill"] and seen["short"]
        assert any(s.demand_mbps is None for s in specs)
        assert scalar == self._run(IQPathsService, specs)


class TestCheckpointCuts:
    """Snapshots and resumes cross oracle <-> product byte-for-byte."""

    @settings(derandomize=True, max_examples=5, deadline=None)
    @given(
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=0.25, max_value=0.75),
    )
    def test_cut_and_cross_backend_resume(self, seed, cut_frac):
        scenario = make_scenario("flash-crowd-chaos")
        total_steps = int(round(scenario.duration / 0.5))

        def fresh(cls):
            with service_class(cls):
                driver = make_scale_run(
                    scenario, seed=seed, max_sessions=40
                )
            assert type(driver.service) is cls
            driver.begin(scenario.duration)
            return driver

        cut = max(1, int(total_steps * cut_frac))
        scalar = fresh(ScalarReferenceService)
        vectorized = fresh(IQPathsService)
        scalar.advance_to(cut)
        vectorized.advance_to(cut)
        snap_scalar = {
            "service": scalar.service.state_dict(),
            "driver": scalar.state_dict(),
        }
        snap_vectorized = {
            "service": vectorized.service.state_dict(),
            "driver": vectorized.state_dict(),
        }
        # Oracle and product write the same mid-run snapshot bytes.
        assert payload_digest(snap_scalar) == payload_digest(
            snap_vectorized
        )

        reference = fresh(IQPathsService)
        reference_report = reference.run(scenario.duration).to_dict()

        # The oracle's snapshot resumed on the product (and the reverse)
        # must finish exactly where the uninterrupted run does.
        for snapshot, cls in (
            (snap_scalar, IQPathsService),
            (snap_vectorized, ScalarReferenceService),
        ):
            resumed = fresh(cls)
            resumed.service.load_state_dict(snapshot["service"])
            resumed.load_state_dict(snapshot["driver"])
            steps = int(
                round(scenario.duration / resumed.service.dt)
            )
            resumed.advance_to(steps)
            report = resumed.finalize(scenario.duration).to_dict()
            assert payload_digest(report) == payload_digest(
                reference_report
            ), f"resume on {cls.__name__} diverged from uninterrupted run"


class TestClusterShards:
    """Shard-sliced runs agree with the oracle's, partition by partition."""

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=9))
    def test_partitioned_baseline_identical(self, seed):
        with service_class(ScalarReferenceService):
            scalar = run_partitioned(
                "baseline", seed=seed, max_sessions=24
            )
        vectorized = run_partitioned(
            "baseline", seed=seed, max_sessions=24
        )
        assert scalar.checksum() == vectorized.checksum()
        assert payload_digest(scalar.to_dict()) == payload_digest(
            vectorized.to_dict()
        )


class TestPacketSessionFaults:
    """Mid-run faults at packet granularity: the SessionResult's window
    accounting is whole, integral and consistent with its aggregates."""

    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=25.0, max_value=45.0),
    )
    def test_session_with_outage_equal(self, seed, outage_start):
        realization = make_figure8_testbed().realize(
            seed=seed, duration=90.0, dt=0.1
        )
        campaign = FaultCampaign(
            faults=tuple(
                correlated_outage(
                    ["A"], start=outage_start, duration=15.0
                )
            ),
            name="outage-A",
        )
        streams = smartpointer_streams()
        obs = Observability()
        result = run_packet_session(
            realization,
            streams,
            tw=1.0,
            warmup_windows=30,
            campaign=campaign,
            obs=obs,
        )
        n_windows = 90 - 30
        assert result.n_windows == n_windows
        assert set(result.sent) == {s.name for s in streams}
        windows = obs.trace.events(name="window")
        assert len(windows) == n_windows
        for spec in streams:
            per_path = result.sent[spec.name]
            assert set(per_path) == set(result.path_names)
            for path, series in per_path.items():
                assert len(series) == n_windows
                assert all(type(n) is int and n >= 0 for n in series)
                # The per-window trace events carry the same counts.
                assert series == [
                    e.fields["sent"].get(spec.name, {}).get(path, 0)
                    for e in windows
                ]
            total = sum(sum(series) for series in per_path.values())
            mbps = result.throughput_mbps(spec.name, spec.packet_size)
            assert mbps.shape == (n_windows,)
            assert np.isclose(
                mbps.sum() * 1.0 * 1e6 / 8.0, total * spec.packet_size
            )
        for path, flags in result.quarantine_series.items():
            assert len(flags) == n_windows
            assert all(type(f) is bool for f in flags)
            # Quarantined windows carried none of the session's packets.
            for w, quarantined in enumerate(flags):
                if quarantined:
                    assert all(
                        result.sent[s.name][path][w] == 0 for s in streams
                    )
        # The outage on A was noticed and A sat out at least one window.
        assert any(t.path == "A" for t in result.health_transitions)
        assert any(result.quarantine_series["A"])
        assert not any(result.quarantine_series["B"])
        assert result.blocked_events == int(
            obs.metrics.get("transport.blocked_events").value
        )
