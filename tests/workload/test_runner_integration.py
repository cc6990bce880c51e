"""Workload/envelope specs through repro.runner: dispatch and identity."""

import pytest

from repro.runner import envelope_spec, run_specs, scale_suite, workload_spec


def fast_specs():
    return [
        workload_spec(
            "baseline", seed=0, duration=10.0, max_sessions=20
        ),
        envelope_spec(
            "baseline",
            seed=0,
            iterations=1,
            probe_duration=6.0,
            max_sessions=12,
        ),
    ]


class TestDispatch:
    def test_workload_payload_shape(self):
        report = run_specs([fast_specs()[0]], workers=0)
        assert report.all_ok
        payload = report.outcomes[0].payload
        assert payload["workload"]["offered"] == 20
        assert "checksum" in payload
        assert payload["report"].endswith("\n")

    def test_envelope_payload_shape(self):
        report = run_specs([fast_specs()[1]], workers=0)
        assert report.all_ok
        payload = report.outcomes[0].payload
        assert "max_sustainable_scale" in payload["envelope"]
        assert "checksum" in payload


class TestIdentity:
    def test_checksums_identical_across_worker_counts(self):
        specs = fast_specs()
        inline = run_specs(specs, workers=0)
        pooled = run_specs(specs, workers=2, timeout_s=300.0)
        assert [o.payload["checksum"] for o in inline.outcomes] == [
            o.payload["checksum"] for o in pooled.outcomes
        ]
        assert [o.payload for o in inline.outcomes] == [
            o.payload for o in pooled.outcomes
        ]


class TestSuiteBuilder:
    def test_scale_suite_covers_all_scenarios(self):
        suite = scale_suite(fast=True)
        names = [s.name for s in suite]
        assert len(names) == len(set(names))
        kinds = {s.kind for s in suite}
        assert kinds == {"workload", "envelope"}
        for scenario in (
            "baseline",
            "diurnal",
            "flash-crowd",
            "flash-crowd-chaos",
        ):
            assert any(scenario in n for n in names)

    def test_fast_suite_is_bounded(self):
        for spec in scale_suite(fast=True):
            assert spec.params.get("max_sessions") is not None or (
                spec.kind == "envelope"
            )

    @pytest.mark.slow
    def test_full_suite_builds(self):
        suite = scale_suite(fast=False)
        assert len(suite) == len(scale_suite(fast=True))
