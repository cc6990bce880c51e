"""Perf ledger: spine reports appended, compared and shown; no timing."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BASELINE = ROOT / "benchmarks" / "spine" / "baseline.json"
LEDGER = ROOT / "benchmarks" / "results" / "LEDGER.jsonl"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "perf_ledger", ROOT / "tools" / "perf_ledger.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


@pytest.fixture(scope="module")
def baseline():
    return json.loads(BASELINE.read_text())


def _scaled(report, workload, metric, factor):
    """A copy of ``report`` with one end-to-end metric scaled, reps and all."""
    out = copy.deepcopy(report)
    measured = out["workloads"][workload]["end_to_end"][metric]
    for key in ("value", "min", "max"):
        if key in measured:
            measured[key] *= factor
    return out


def _on_other_machine(report):
    out = copy.deepcopy(report)
    out["fingerprint"]["cpus"] += 62
    return out


class _Ledger:
    """A throwaway ledger driven through the tool's command line."""

    def __init__(self, tmp_path, capsys):
        self.tmp_path = tmp_path
        self.path = tmp_path / "LEDGER.jsonl"
        self.capsys = capsys
        self.appended = 0

    def run(self, *argv):
        code = tool.main(["--ledger", str(self.path), *argv])
        return code, self.capsys.readouterr().out

    def append(self, report, note=""):
        self.appended += 1
        path = self.tmp_path / f"report-{self.appended}.json"
        path.write_text(json.dumps(report))
        code, _ = self.run("append", str(path), "--note", note)
        assert code == 0


@pytest.fixture
def ledger(tmp_path, capsys):
    return _Ledger(tmp_path, capsys)


class TestHarvest:
    def test_make_entry_is_stamped_and_appendable(self, ledger, baseline):
        code, out = ledger.run(
            "append", str(BASELINE), "--note", "unit test"
        )
        assert code == 0 and "8 workload(s)" in out
        (entry,) = tool.read_entries(ledger.path)
        assert entry["machine"] == tool.machine_id(baseline["fingerprint"])
        assert entry["note"] == "unit test"
        assert entry["recorded_at"]
        # The report itself round-trips untouched.
        for key in ("fingerprint", "workloads"):
            assert entry[key] == baseline[key]

    def test_a_file_that_is_not_a_spine_report_is_refused(self, ledger):
        other = ledger.tmp_path / "other.json"
        other.write_text(json.dumps({"latest": {"speedup": 1.4}}))
        code, _ = ledger.run("append", str(other))
        assert code == 2 and not ledger.path.exists()

    def test_collects_from_real_results_dir(self, capsys, baseline):
        """The committed ledger is readable by the committed tool."""
        entries = tool.read_entries(LEDGER)
        assert len(entries) >= 2
        for entry in entries:
            assert entry["machine"] == tool.machine_id(entry["fingerprint"])
            assert len(entry["workloads"]) == 8
        # Entry 0 is the spine's own baseline, read not edited.
        assert entries[0]["workloads"] == baseline["workloads"]
        assert tool.main(["show"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(entries)

    def test_missing_files_and_keys_are_skipped(self, ledger, baseline):
        # No ledger file: nothing to show, nothing to read.
        assert ledger.run("show") == (0, "")
        assert tool.read_entries(ledger.path) == []
        # An entry without the workload or the metric is left out.
        ledger.append(baseline)
        for metric in ("churn/no_such_metric", "no_such_workload/setup_s"):
            assert ledger.run("show", "--metric", metric) == (0, "")


class TestCheck:
    def test_empty_ledger_is_vacuously_green(self, ledger):
        code, out = ledger.run("check")
        assert code == 0 and "empty" in out

    def test_single_entry_has_no_baseline(self, ledger, baseline):
        ledger.append(baseline)
        code, out = ledger.run("check")
        assert code == 0 and "nothing to compare" in out

    def test_entry_against_itself_passes(self, ledger, baseline):
        ledger.append(baseline)
        ledger.append(baseline)
        code, out = ledger.run("check")
        assert code == 0
        assert out.splitlines()[-1] == "PASS"
        assert "regressed" not in out and "DIFFERS" not in out

    def test_higher_is_better_regression_detected(self, ledger, baseline):
        ledger.append(baseline)
        ledger.append(_scaled(baseline, "churn", "work_per_s", 0.7))
        code, out = ledger.run("check")
        assert code == 1
        (row,) = [r for r in out.splitlines() if r.endswith("regressed")]
        assert row.split()[:2] == ["churn", "work_per_s"]

    def test_lower_is_better_regression_detected(self, ledger, baseline):
        ledger.append(baseline)
        ledger.append(_scaled(baseline, "steady", "setup_s", 1.5))
        code, out = ledger.run("check")
        assert code == 1
        (row,) = [r for r in out.splitlines() if r.endswith("regressed")]
        assert row.split()[:2] == ["steady", "setup_s"]

    def test_improvement_passes(self, ledger, baseline):
        ledger.append(baseline)
        ledger.append(_scaled(baseline, "churn", "work_per_s", 1.5))
        code, out = ledger.run("check")
        assert code == 0
        (row,) = [r for r in out.splitlines() if r.endswith("improved")]
        assert row.split()[:2] == ["churn", "work_per_s"]

    def test_differing_sim_statistic_fails(self, ledger, baseline):
        changed = copy.deepcopy(baseline)
        layers = changed["workloads"]["churn"]["per_layer"]
        layers["sim.violation_rate"]["value"] += 0.001
        ledger.append(baseline)
        ledger.append(changed)
        code, out = ledger.run("check")
        assert code == 1
        (row,) = [r for r in out.splitlines() if r.endswith("DIFFERS")]
        assert row.split()[:2] == ["churn", "sim.violation_rate"]

    def test_unregistered_metrics_never_gate(self, ledger, baseline):
        # Per-layer timings carry no bound in the spine's spec.
        slower = copy.deepcopy(baseline)
        layers = slower["workloads"]["churn"]["per_layer"]
        layers["middleware.open_s"]["value"] *= 10.0
        ledger.append(baseline)
        ledger.append(slower)
        code, _ = ledger.run("check")
        assert code == 0

    def test_other_machines_are_excluded_from_history(self, ledger, baseline):
        # A 3x faster box in between is never the comparison base ...
        fast = _on_other_machine(
            _scaled(baseline, "churn", "work_per_s", 3.0)
        )
        ledger.append(baseline)
        ledger.append(fast)
        ledger.append(baseline)
        code, out = ledger.run("check")
        assert code == 0 and out.splitlines()[-1] == "PASS"
        # ... and an entry with only foreign history has no base at all.
        ledger.path.unlink()
        ledger.append(fast)
        ledger.append(baseline)
        code, out = ledger.run("check")
        assert code == 0 and "nothing to compare" in out

    def test_render_names_the_regression(self, ledger, baseline):
        ledger.append(baseline)
        ledger.append(_scaled(baseline, "packets", "peak_rss_mb", 1.2))
        code, out = ledger.run("check")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("A: ") and lines[1].startswith("B: ")
        assert lines[-1] == "FAIL"
        assert any(
            "packets" in r and "peak_rss_mb" in r and "regressed" in r
            for r in lines
        )


class TestShow:
    def test_metric_trajectory_is_one_line_per_entry(self, ledger, baseline):
        ledger.append(baseline, note="first")
        ledger.append(_scaled(baseline, "churn", "work_per_s", 2.0))
        code, out = ledger.run("show", "--metric", "churn/work_per_s")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2
        rate = baseline["workloads"]["churn"]["end_to_end"]["work_per_s"]
        assert f"{rate['value']:.6g} 1/s" in lines[0]
        assert f"{2.0 * rate['value']:.6g} 1/s" in lines[1]
        assert lines[0].endswith("# first")

    def test_per_layer_metric_and_entry_summaries(self, ledger, baseline):
        ledger.append(baseline)
        _, out = ledger.run("show", "--metric", "churn/middleware.open_s")
        assert out.count("\n") == 1 and " s" in out
        _, out = ledger.run("show")
        assert "8 workload(s)" in out
