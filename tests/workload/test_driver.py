"""The churn driver: determinism, accounting invariants, trace events."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.context import Observability
from repro.obs.events import Category
from repro.workload import run_scale_scenario
from repro.workload.catalog import default_catalog, plan_sessions
from repro.workload.driver import ChurnDriver
from repro.workload.scenarios import build_service, make_scenario
from repro.runner.spec import mix_seed

MAX_SESSIONS = 60
DURATION = 15.0


def _run(seed=0, obs=None):
    return run_scale_scenario(
        make_scenario("baseline", duration=DURATION),
        seed=seed,
        max_sessions=MAX_SESSIONS,
        obs=obs,
    )


@pytest.fixture(scope="module")
def report():
    return _run()


class TestDeterminism:
    def test_same_seed_byte_identical(self, report):
        rerun = _run()
        assert report.checksum() == rerun.checksum()
        assert report.to_dict() == rerun.to_dict()

    def test_different_seed_differs(self, report):
        other = _run(seed=1)
        assert report.checksum() != other.checksum()

    def test_payload_is_json_clean(self, report):
        import json

        json.dumps(report.to_dict(), allow_nan=False)


class TestAccounting:
    def test_outcome_partition(self, report):
        assert report.offered == MAX_SESSIONS
        assert (
            report.admitted + report.degraded + report.rejected
            == report.offered
        )
        # Every non-rejected session eventually closed (or was truncated).
        assert (
            report.closed + report.truncated
            == report.offered - report.rejected
        )

    def test_tenant_rollup_matches_totals(self, report):
        accounts = report.tenants.values()
        assert sum(a.offered for a in accounts) == report.offered
        assert sum(a.admitted for a in accounts) == report.admitted
        assert sum(a.degraded for a in accounts) == report.degraded
        assert sum(a.rejected for a in accounts) == report.rejected
        assert sum(a.violations for a in accounts) == report.violations

    def test_session_records_consistent(self, report):
        assert len(report.sessions) == report.offered
        indices = [s.index for s in report.sessions]
        assert indices == sorted(indices)
        for record in report.sessions:
            if record.outcome == "rejected":
                assert record.opened_at is None
                assert record.closed_at is None
            else:
                assert record.opened_at is not None
                assert record.closed_at is not None
                assert record.closed_at >= record.opened_at
                assert record.mean_mbps is not None

    def test_violation_rate_bounds(self, report):
        assert 0.0 <= report.violation_rate <= 1.0

    def test_render_mentions_tenants(self, report):
        text = report.render()
        for tenant in ("gold", "silver", "bronze"):
            assert f"[{tenant}]" in text


class TestTraceAndMetrics:
    @pytest.fixture(scope="class")
    def observed(self):
        obs = Observability()
        report = _run(obs=obs)
        return obs, report

    def test_workload_events_match_accounting(self, observed):
        obs, report = observed
        events = obs.trace.events()
        by_name: dict[str, int] = {}
        for e in events:
            if e.category == Category.WORKLOAD:
                by_name[e.name] = by_name.get(e.name, 0) + 1
        assert by_name.get("workload_start", 0) == 1
        assert by_name.get("workload_end", 0) == 1
        assert by_name.get("session_arrival", 0) == report.offered
        assert by_name.get("session_admitted", 0) == report.admitted
        assert by_name.get("session_degraded", 0) == report.degraded
        assert by_name.get("session_rejected", 0) == report.rejected
        closes = report.closed + report.truncated
        assert by_name.get("session_close", 0) == closes

    def test_admission_counters_match(self, observed):
        obs, report = observed
        metrics = obs.metrics.to_dict()["current"]

        def count(name):
            return metrics.get(name, {}).get("value", 0)

        assert count("admission.admitted") == report.admitted
        assert count("admission.rejected") == report.rejected
        assert count("admission.degraded") == report.degraded
        per_tenant = sum(
            count(f"admission.admitted.tenant.{t}")
            for t in report.tenants
        )
        assert per_tenant == report.admitted


class TestDriverErrors:
    def test_duplicate_plan_names_rejected(self):
        scenario = make_scenario("baseline", duration=10.0)
        plans = plan_sessions(
            scenario.model,
            default_catalog(),
            10.0,
            seed=mix_seed(0, "workload-plan", "baseline"),
            max_sessions=2,
        )
        service = build_service(scenario, seed=0)
        with pytest.raises(ConfigurationError):
            ChurnDriver(service, plans + plans)

    def test_overlong_duration_rejected(self):
        scenario = make_scenario("baseline", duration=10.0)
        plans = plan_sessions(
            scenario.model,
            default_catalog(),
            10.0,
            seed=0,
            max_sessions=2,
        )
        service = build_service(scenario, seed=0)
        driver = ChurnDriver(service, plans)
        with pytest.raises(ConfigurationError):
            driver.run(10_000.0)
