"""The figures' PGOS arms run the product's algorithm path, bit for bit.

Figures 9-13 come from :func:`repro.harness.experiment.run_schedule_experiment`;
workloads run :class:`repro.middleware.service.IQPathsService`.  Both
deliver through :func:`repro.core.scheduler.deliver_interval`'s algorithm
(the service in its columnar form), so on the same realization, warmup,
``tw`` (1.0 s) and buffer, with every stream opened at the end of warmup,
each stream's per-interval series must be *equal*.  A divergence would
mean admission, mapping adoption or lazy scheduler binding changes what
the paper's algorithm delivers.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.apps.gridftp import gridftp_streams, run_gridftp
from repro.apps.smartpointer import run_smartpointer, smartpointer_streams
from repro.harness.figures import fig9, fig12
from repro.harness.figures.smartpointer_runs import params_for
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed

DT = 0.1

#: arm -> (seed, figure-8 cross-traffic profiles, streams, experiment run)
ARMS = {
    "fig9-PGOS": (
        fig9.CANONICAL_SEED,
        ("abilene-moderate", "abilene-noisy"),
        smartpointer_streams,
        lambda seed, duration, warmup: run_smartpointer(
            "PGOS", seed=seed, duration=duration, warmup_intervals=warmup
        ),
    ),
    "fig12-IQPG": (
        fig12.CANONICAL_SEED,
        ("light", "light"),
        gridftp_streams,
        lambda seed, duration, warmup: run_gridftp(
            "IQPG", seed=seed, duration=duration, warmup_intervals=warmup
        ),
    ),
}


@lru_cache(maxsize=None)
def _experiment(arm: str, fast: bool):
    seed, _, _, run = ARMS[arm]
    duration, warmup = params_for(fast)
    return run(seed, duration, warmup)


@pytest.mark.parametrize("strict_admission", [True, False])
@pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
@pytest.mark.parametrize("arm", list(ARMS))
def test_pgos_arm_equals_service(arm, fast, strict_admission):
    seed, (profile_a, profile_b), streams, _ = ARMS[arm]
    duration, warmup = params_for(fast)
    realization = make_figure8_testbed(
        profile_a=profile_a, profile_b=profile_b
    ).realize(seed=seed, duration=duration, dt=DT)
    service = IQPathsService(
        realization,
        warmup_intervals=warmup,
        tw=1.0,
        strict_admission=strict_admission,
    )
    specs = streams()
    service.open_streams(specs)
    service.advance(service.remaining_intervals * service.dt)

    expected = _experiment(arm, fast)
    assert expected.n_intervals == realization.n_intervals - warmup
    for spec in specs:
        got = service.report(spec.name).mbps
        want = expected.stream_series(spec.name)
        assert np.array_equal(got, want), (
            f"{spec.name}: first divergence at interval "
            f"{int(np.flatnonzero(got != want)[0])}"
        )
