"""Serial vs parallel byte-equivalence on real figures, plus the CLI.

The runner's core promise: payloads are pure functions of their specs,
so worker count and completion order can never change a single byte of
output.  These tests pay for two real (fast-mode) figures once and
compare every execution path against that baseline.
"""

from __future__ import annotations

import json

import pytest

from repro.runner import figure_suite, run_specs
from repro.runner.cache import payload_digest
from repro.runner.cli import main as runner_main

#: Two cheap figures with different code paths (scheduling vs app ext).
FIGURES = ["fig10", "video"]


@pytest.fixture(scope="module")
def serial_report():
    specs = figure_suite(FIGURES, fast=True)
    return run_specs(specs, workers=1, timeout_s=300.0)


class TestByteEquivalence:
    def test_parallel_matches_serial(self, serial_report):
        specs = figure_suite(FIGURES, fast=True)
        parallel = run_specs(specs, workers=2, timeout_s=300.0)
        for serial_o, parallel_o in zip(
            serial_report.outcomes, parallel.outcomes
        ):
            assert serial_o.status == parallel_o.status == "ok"
            assert payload_digest(serial_o.payload) == payload_digest(
                parallel_o.payload
            )
            assert (
                serial_o.payload["report"] == parallel_o.payload["report"]
            )

    def test_inline_matches_serial(self, serial_report):
        specs = figure_suite(FIGURES, fast=True)
        inline = run_specs(specs, workers=0)
        for serial_o, inline_o in zip(
            serial_report.outcomes, inline.outcomes
        ):
            assert payload_digest(serial_o.payload) == payload_digest(
                inline_o.payload
            )

    def test_canonical_seed_matches_harness_cli(self, serial_report):
        # The runner's figure report must be byte-identical to what
        # ``python -m repro.harness <figure> --fast`` renders.
        from repro.harness.figures import FIGURES as REGISTRY

        for outcome in serial_report.outcomes:
            name = outcome.spec.params["figure"]
            direct = REGISTRY[name](fast=True)
            assert outcome.payload["report"] == direct.render() + "\n"


class TestRunnerCli:
    def test_cold_run_matches_one_worker(self, tmp_path, capsys):
        reports = {}
        for workers in ("1", "2"):
            out = tmp_path / f"out-w{workers}"
            summary_path = tmp_path / f"summary-w{workers}.json"
            argv = [
                "fig10",
                "--fast",
                "--workers",
                workers,
                "--output-dir",
                str(out),
                "--summary-json",
                str(summary_path),
            ]
            assert runner_main(argv) == 0
            summary = json.loads(summary_path.read_text())
            assert summary["executed"] == summary["total"] == 1
            reports[workers] = (out / "fig10-fast.txt").read_bytes()
        assert reports["2"] == reports["1"]
        capsys.readouterr()  # silence the CLI chatter

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "-1"),
            ("--retries", "-1"),
            ("--timeout", "-1"),
            ("--hang-timeout", "0"),
        ],
    )
    def test_bad_budget_exits_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            runner_main(["fig10", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_unknown_figure_rejected(self, capsys):
        assert runner_main(["nope"]) == 2
        capsys.readouterr()

    def test_list(self, capsys):
        assert runner_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "video" in out

    def test_failure_exit_code(self, monkeypatch, tmp_path, capsys):
        """A figure that raises fails its spec, and the CLI exits 1.

        The registry is patched in this process; the worker forked to
        run the spec inherits it."""
        from repro.harness import figures

        def broken(seed=None, fast=False):
            raise RuntimeError("injected figure failure")

        monkeypatch.setitem(figures.FIGURES, "fig10", broken)
        argv = [
            "fig10",
            "--fast",
            "--workers",
            "1",
            "--retries",
            "0",
            "--output-dir",
            str(tmp_path / "out"),
        ]
        assert runner_main(argv) == 1
        assert not (tmp_path / "out" / "fig10-fast.txt").exists()
        capsys.readouterr()
