"""Shared canonical-run fixtures for the golden regression suite.

One session-scoped pass runs every canonical fast-mode figure through
the runner (inline workers) and hands the payloads to all regression
tests — the suite costs one fast sweep (~seconds), not one per test.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.runner import figure_suite, run_specs
from repro.runner.cache import payload_digest

GOLDENS_PATH = Path(__file__).parent / "goldens.json"


@pytest.fixture(scope="session")
def goldens() -> dict:
    data = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    assert data["schema"] == 1 and data["fast"] is True
    return data


@pytest.fixture(scope="session")
def canonical_payloads() -> dict[str, dict]:
    """Payloads of every canonical fast figure, keyed by spec name."""
    report = run_specs(figure_suite(fast=True), workers=0)
    payloads = {}
    for outcome in report.outcomes:
        assert outcome.status == "ok", (
            f"{outcome.spec.name}: {outcome.status} ({outcome.error})"
        )
        payloads[outcome.spec.name] = outcome.payload
    return payloads


@pytest.fixture(scope="session")
def canonical_digests(canonical_payloads) -> dict[str, str]:
    return {
        name: payload_digest(payload)
        for name, payload in canonical_payloads.items()
    }


@pytest.fixture(scope="session")
def measured(canonical_payloads):
    """Accessor for a figure's measured-quantity dict."""

    def _get(figure: str) -> dict[str, float]:
        return canonical_payloads[f"{figure}-fast"]["measured"]

    return _get
