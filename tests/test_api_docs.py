"""The API-reference generator works and the committed copy is fresh."""

import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import gen_api_docs  # noqa: E402


class TestGenerator:
    def test_renders_key_apis(self):
        text = gen_api_docs.render()
        for needle in (
            "class `PGOSScheduler`",
            "probabilistic_guarantee",
            "violation_bound",
            "class `EmpiricalCDF`",
            "make_figure8_testbed",
            "run_schedule_experiment",
            "class `WFQScheduler`",
        ):
            assert needle in text, needle

    def test_every_section_has_summary_or_entries(self):
        text = gen_api_docs.render()
        # No empty headers: every '## `module`' block carries content.
        blocks = text.split("## ")[1:]
        for block in blocks:
            assert "- " in block or block.strip().count("\n") >= 1

    def test_committed_copy_is_current(self):
        committed = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
        assert committed == gen_api_docs.render(), (
            "docs/api.md is stale; regenerate with "
            "`python tools/gen_api_docs.py`"
        )
