"""Figure reproductions (fast mode): the paper's shape claims hold."""

import pytest

from repro.harness.figures import FIGURES
from repro.harness.figures import fig4, fig9, fig10, fig11, fig12, fig13


@pytest.fixture(scope="module")
def fig4_result():
    return fig4.run(fast=True)


@pytest.fixture(scope="module")
def fig9_result():
    return fig9.run(fast=True)


@pytest.fixture(scope="module")
def fig10_result():
    return fig10.run(fast=True)


@pytest.fixture(scope="module")
def fig11_result():
    return fig11.run(fast=True)


@pytest.fixture(scope="module")
def fig12_result():
    return fig12.run(fast=True)


@pytest.fixture(scope="module")
def fig13_result():
    return fig13.run(fast=True)


class TestRegistry:
    def test_all_figures_registered(self):
        assert set(FIGURES) == {
            "fig4",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "ablations",
            "video",
            "sweep",
        }


class TestFig4:
    def test_percentile_beats_mean_prediction(self, fig4_result):
        m = fig4_result.measured
        assert (
            m["percentile_failure_rate_avg"]
            < m["mean_prediction_error_avg"] / 2
        )

    def test_failure_rate_low(self, fig4_result):
        assert fig4_result.measured["percentile_failure_rate_max"] < 0.08

    def test_mean_error_substantial(self, fig4_result):
        assert fig4_result.measured["mean_prediction_error_avg"] > 0.08

    def test_renders(self, fig4_result):
        text = fig4_result.render()
        assert "BW window" in text and "paper vs measured" in text


class TestFig9:
    def test_pgos_hits_targets(self, fig9_result):
        m = fig9_result.measured
        assert m["pgos_atom_mean"] == pytest.approx(3.249, rel=0.02)
        assert m["pgos_bond1_mean"] == pytest.approx(22.148, rel=0.02)

    def test_pgos_stabler_than_msfq(self, fig9_result):
        m = fig9_result.measured
        assert m["pgos_bond1_std"] < m["msfq_bond1_std"] / 2

    def test_bond2_not_compromised(self, fig9_result):
        assert fig9_result.measured[
            "bond2_mean_ratio_pgos_over_msfq"
        ] == pytest.approx(1.0, abs=0.05)

    def test_bond2_split_across_paths(self, fig9_result):
        assert fig9_result.measured["pgos_bond2_paths_used"] == 2.0


class TestFig10:
    def test_pgos_attainment_near_full(self, fig10_result):
        assert fig10_result.measured["pgos_bond1_attainment_p95"] >= 0.97

    def test_msfq_attainment_degraded(self, fig10_result):
        m = fig10_result.measured
        assert m["msfq_bond1_attainment_p95"] < 0.95
        assert (
            m["msfq_bond1_p95_time_mbps"] < m["pgos_bond1_p95_time_mbps"]
        )


class TestFig11:
    def test_jitter_ordering(self, fig11_result):
        m = fig11_result.measured
        assert m["pgos_jitter_ms"] < m["msfq_jitter_ms"]

    def test_pgos_atom_p95(self, fig11_result):
        assert fig11_result.measured["pgos_atom_p95_time"] >= 3.249 * 0.99

    def test_bond1_p95_pgos_at_target_msfq_below(self, fig11_result):
        m = fig11_result.measured
        assert m["pgos_bond1_p95_time"] >= 22.148 * 0.99
        assert m["msfq_bond1_p95_time"] < 22.148 * 0.95

    def test_std_ordering(self, fig11_result):
        m = fig11_result.measured
        assert m["pgos_bond1_std"] < m["msfq_bond1_std"]


class TestFig12:
    def test_iqpg_record_rate(self, fig12_result):
        m = fig12_result.measured
        assert m["iqpg_dt1_records_per_s"] == pytest.approx(25.0, rel=0.01)
        assert m["iqpg_dt2_records_per_s"] == pytest.approx(25.0, rel=0.01)

    def test_iqpg_stabler_than_gridftp(self, fig12_result):
        m = fig12_result.measured
        assert m["iqpg_dt1_std"] < m["gridftp_dt1_std"] / 2

    def test_means_near_paper(self, fig12_result):
        m = fig12_result.measured
        assert m["gridftp_dt1_mean"] == pytest.approx(33.94, rel=0.05)
        assert m["iqpg_dt1_mean"] == pytest.approx(34.55, rel=0.02)

    def test_dt3_split(self, fig12_result):
        assert fig12_result.measured["iqpg_dt3_paths_used"] == 2.0


class TestFig13:
    def test_iqpg_cdf_step_at_requirement(self, fig13_result):
        m = fig13_result.measured
        assert m["iqpg_dt1_attainment_p95"] >= 0.99

    def test_gridftp_cdf_smeared(self, fig13_result):
        m = fig13_result.measured
        assert m["gridftp_dt1_attainment_p95"] < m["iqpg_dt1_attainment_p95"]


class TestAuxiliaryFigures:
    """Fast-mode structure checks for the non-paper figures."""

    def test_ablations(self):
        from repro.harness.figures import ablations

        result = ablations.run(fast=True)
        m = result.measured
        assert m["pgos_crit_attainment_p95"] >= 0.99
        assert m["pgos_crit_attainment_p95"] >= m["meanpred_crit_attainment_p95"]
        assert "prediction ablation" in result.render()

    def test_video(self):
        from repro.harness.figures import video_ext

        result = video_ext.run(fast=True)
        assert result.measured["pgos_stall_fraction"] <= 0.05
        assert "base layer" in result.render()

    def test_sweep(self):
        from repro.harness.figures import sweep_fig

        result = sweep_fig.run(fast=True)
        assert result.measured["pgos_attainment_at_nominal_load"] >= 0.9
        rendered = result.render()
        assert "x-traffic scale" in rendered
        assert "probing-quality sweep" in rendered


class TestFigureResultContainer:
    def test_comparison_rows_pair_paper_values(self):
        from repro.harness.figures.base import FigureResult

        result = FigureResult(figure_id="x", title="t")
        result.measured = {"a": 1.0, "b": 2.0}
        result.paper = {"a": 1.5}
        rows = dict(
            (key, (paper, measured))
            for key, paper, measured in result.comparison_rows()
        )
        assert rows == {"a": (1.5, 1.0), "b": (None, 2.0)}

    def test_render_includes_notes_and_sections(self):
        from repro.harness.figures.base import FigureResult

        result = FigureResult(figure_id="x", title="t")
        result.add_section("cap", "body")
        result.notes = ["careful"]
        text = result.render()
        assert "== x: t ==" in text
        assert "-- cap --" in text and "body" in text
        assert "note: careful" in text
