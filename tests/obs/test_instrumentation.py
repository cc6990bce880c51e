"""End-to-end instrumentation: sessions and chaos runs explain themselves.

These run real (small) workloads, so they double as the acceptance check
for the observability layer: the packet session emits consistent metrics
and trace events without perturbing the simulation, the chaos harness's
trace-derived robustness figures match an independent replay of the
tracker's transition log on the same seed, and ``tools/trace_report.py``
reconstructs a guarantee violation as an ordered causal chain.
"""

import importlib.util
from pathlib import Path
from typing import Optional, Sequence

import pytest

from repro.apps.smartpointer import smartpointer_streams
from repro.harness.chaos import run_chaos_campaign
from repro.network.emulab import make_figure8_testbed
from repro.network.faults import FaultCampaign, correlated_outage
from repro.obs import Observability, TraceBus
from repro.obs.events import Category
from repro.obs.introspect import explain_shortfall, guarantee_violations
from repro.robustness.health import HealthTransition, PathHealth
from repro.transport.session import run_packet_session

TOOLS = Path(__file__).resolve().parents[2] / "tools"


def _detection_latency(
    transitions: Sequence[HealthTransition],
    campaign: FaultCampaign,
) -> Optional[float]:
    """Seconds from first fault onset to first off-HEALTHY transition."""
    onset = campaign.first_onset
    for tr in transitions:
        if tr.path in campaign.faulted_paths and tr.time >= onset:
            return tr.time - onset
    return None


def _recovery_latency(
    transitions: Sequence[HealthTransition],
    path_names: Sequence[str],
    campaign: FaultCampaign,
) -> Optional[float]:
    """Seconds from last fault end until every path is HEALTHY again.

    Replays path states over the transition log and finds the first
    instant at/after the campaign's end where all are HEALTHY.
    """
    end = campaign.last_end
    states = {p: PathHealth.HEALTHY for p in path_names}
    for tr in sorted(transitions, key=lambda t: t.time):
        states[tr.path] = tr.new
        if tr.time >= end and all(
            s is PathHealth.HEALTHY for s in states.values()
        ):
            return tr.time - end
    # No transition at/after the end completed the recovery: either all
    # paths were already healthy when the faults ended (instantaneous),
    # or some path never healed.
    if all(s is PathHealth.HEALTHY for s in states.values()):
        return 0.0
    return None


@pytest.fixture(scope="module")
def realization():
    # Path B carries heavy cross-traffic so the degraded mapping after a
    # path-A outage still misses guarantees — the shortfalls whose causal
    # chains the report must reconstruct.
    testbed = make_figure8_testbed(
        profile_a="abilene-moderate", profile_b="wild"
    )
    return testbed.realize(seed=23, duration=120.0, dt=0.1)


@pytest.fixture(scope="module")
def outage_campaign():
    return FaultCampaign(
        faults=tuple(correlated_outage(["A"], start=30.0, duration=10.0)),
        name="outage-A-obs",
    )


@pytest.fixture(scope="module")
def chaos_report(realization, outage_campaign):
    return run_chaos_campaign(
        realization, smartpointer_streams(), outage_campaign, duration=90.0
    )


class TestSessionInstrumentation:
    @pytest.fixture(scope="class")
    def session_pair(self, realization):
        streams = smartpointer_streams()
        plain = run_packet_session(realization, streams, warmup_windows=15)
        obs = Observability()
        traced = run_packet_session(
            realization, streams, warmup_windows=15, obs=obs
        )
        return plain, traced, obs

    def test_observability_does_not_perturb_the_simulation(
        self, session_pair
    ):
        plain, traced, _ = session_pair
        assert traced.n_windows == plain.n_windows
        assert traced.sent == plain.sent
        assert traced.deadline_misses == plain.deadline_misses

    def test_engine_and_transport_metrics_are_consistent(self, session_pair):
        _, traced, obs = session_pair
        metrics = obs.metrics
        scheduled = metrics.get("engine.events_scheduled").value
        fired = metrics.get("engine.events_fired").value
        assert 0 < fired <= scheduled
        windows = metrics.get("transport.windows").value
        assert windows == traced.n_windows
        assert len(obs.trace.events(category=Category.TRANSPORT,
                                    name="window")) == windows
        assert metrics.get("transport.packets_delivered").value > 0
        # One metrics snapshot per window, stamped with sim time.
        assert len(metrics.snapshots) >= windows

    def test_streams_got_stable_ids(self, session_pair):
        _, _, obs = session_pair
        ids = obs.stream_ids()
        assert set(ids) == {s.name for s in smartpointer_streams()}
        assert sorted(ids.values()) == list(range(1, len(ids) + 1))

    def test_trace_round_trips_at_scale(self, session_pair, tmp_path):
        _, _, obs = session_pair
        out = tmp_path / "session.jsonl"
        written = obs.trace.export_jsonl(out)
        assert written == len(obs.trace)
        loaded = TraceBus.load_jsonl(out)
        assert [e.seq for e in loaded] == [e.seq for e in obs.trace]
        assert loaded[-1] == list(obs.trace)[-1]


class TestChaosTraceParity:
    def test_trace_figures_match_legacy_bookkeeping(
        self, chaos_report, outage_campaign, realization
    ):
        # The report's numbers are computed from the trace; the
        # transition-log replay must agree exactly on the same run.
        legacy_detect = _detection_latency(
            chaos_report.transitions, outage_campaign
        )
        legacy_recover = _recovery_latency(
            chaos_report.transitions,
            realization.path_names(),
            outage_campaign,
        )
        assert chaos_report.time_to_detect == legacy_detect
        assert chaos_report.time_to_recover == legacy_recover
        assert chaos_report.detected and chaos_report.recovered

    def test_campaign_markers_bracket_the_trace(self, chaos_report):
        events = list(chaos_report.obs.trace)
        assert events[0].name == "campaign_start"
        end = [e for e in events if e.name == "campaign_end"]
        assert len(end) == 1
        assert end[0].fields["time_to_detect"] == chaos_report.time_to_detect
        assert end[0].fields["time_to_recover"] == (
            chaos_report.time_to_recover
        )

    def test_violation_reconstructs_as_ordered_causal_chain(
        self, chaos_report
    ):
        # At least one shortfall during the outage must explain itself as
        # health transition -> quarantine -> remap -> shortfall, in order.
        events = list(chaos_report.obs.trace)
        full_chains = []
        for shortfall in guarantee_violations(events):
            chain = explain_shortfall(events, shortfall)
            kinds = [(e.category, e.name) for e in chain]
            if (
                (Category.HEALTH, "transition") in kinds
                and (Category.SCHEDULER, "quarantine") in kinds
                and (Category.SCHEDULER, "remap") in kinds
                and kinds[-1] == (Category.SERVICE, "window_shortfall")
            ):
                full_chains.append(chain)
        assert full_chains, "no shortfall produced a complete causal chain"
        chain = full_chains[0]
        times = [(e.sim_time, e.seq) for e in chain]
        assert times == sorted(times)
        # Every link carries the join keys the report needs.
        assert chain[-1].stream_id is not None
        assert any(e.path is not None for e in chain)


class TestTraceReportCli:
    @pytest.fixture(scope="class")
    def trace_report(self):
        spec = importlib.util.spec_from_file_location(
            "trace_report", TOOLS / "trace_report.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture(scope="class")
    def artifacts(self, chaos_report, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("obs")
        trace = tmp / "trace.jsonl"
        metrics = tmp / "metrics.json"
        chaos_report.obs.trace.export_jsonl(trace)
        chaos_report.obs.metrics.export_json(metrics)
        return trace, metrics

    def test_report_explains_shortfalls(
        self, trace_report, artifacts, capsys
    ):
        trace, metrics = artifacts
        rc = trace_report.main([str(trace), "--metrics", str(metrics)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "time to detect (from trace)" in out
        assert "window_shortfall" in out
        assert "explaining" in out

    def test_report_fails_loudly_on_missing_window(
        self, trace_report, artifacts, capsys
    ):
        trace, _ = artifacts
        rc = trace_report.main(
            [str(trace), "--stream", "Atom", "--window", "999999"]
        )
        capsys.readouterr()
        assert rc == 1
