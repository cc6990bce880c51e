"""Shared fixtures for the IQ-Paths reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.monitoring.cdf import EmpiricalCDF
from repro.network.emulab import make_figure8_testbed
from repro.sim.random import RandomStreams


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for one test."""
    return np.random.default_rng(12345)


@pytest.fixture
def streams() -> RandomStreams:
    """A deterministic named-stream factory."""
    return RandomStreams(seed=99)


@pytest.fixture
def gaussian_cdf(rng) -> EmpiricalCDF:
    """An empirical CDF of N(50, 5) bandwidth samples."""
    return EmpiricalCDF(50.0 + 5.0 * rng.standard_normal(2000))


@pytest.fixture(scope="session")
def testbed():
    """The Figure-8 testbed (stateless; safe to share)."""
    return make_figure8_testbed()


@pytest.fixture(scope="session")
def realization(testbed):
    """A short shared realization for driver-level tests."""
    return testbed.realize(seed=5, duration=60.0, dt=0.1)


@pytest.fixture
def selftest_task(monkeypatch):
    """Register the ``selftest`` task kind for one test."""
    from repro.runner.tasks import TASKS
    from tests.runner.selftest_task import run_selftest

    monkeypatch.setitem(TASKS, "selftest", run_selftest)
