"""Isolating recovery/replication traffic (the paper's future work).

"An interesting use of IQ-Paths is to differentiate data traffic required
for replication from other traffic ... to isolate the effects of fault
tolerance or recovery traffic from regular data traffic, perhaps to avoid
the additional disturbances arising during recovery."

Scenario: a steady critical stream runs; at some point a heavy *recovery*
transfer (replica re-synchronization) joins for a while.  Under PGOS the
recovery stream is opened best-effort, so the critical stream's guarantee
is undisturbed; under fair queuing the recovery burst squeezes everyone.
"""

import numpy as np
import pytest

from repro.baselines.msfq import MSFQScheduler
from repro.core.spec import StreamSpec
from repro.harness.metrics import fraction_of_time_at_least
from repro.middleware.service import IQPathsService
from repro.network.emulab import make_figure8_testbed

CRITICAL_MBPS = 22.0
RECOVERY_NOMINAL = 60.0


@pytest.fixture(scope="module")
def realization():
    testbed = make_figure8_testbed()
    return testbed.realize(seed=53, duration=120.0, dt=0.1)


def critical_spec():
    return StreamSpec(
        name="data", required_mbps=CRITICAL_MBPS, probability=0.95
    )


def recovery_spec():
    return StreamSpec(
        name="recovery", elastic=True, nominal_mbps=RECOVERY_NOMINAL
    )


class TestRecoveryIsolation:
    def test_pgos_isolates_recovery_burst(self, realization):
        service = IQPathsService(realization, warmup_intervals=200)
        kept = {}

        def finish_recovery():
            # The close retires the stream: its report is taken first.
            kept["recovery"] = service.report("recovery")
            service.close_stream("recovery")

        service.open_stream(critical_spec())
        service.at(30.0, lambda: service.open_stream(recovery_spec()))
        service.at(70.0, finish_recovery)
        service.advance(100.0)

        data = service.report("data")
        # The guarantee holds across the whole run, burst included.
        assert data.attainment >= 0.95
        # During the burst specifically:
        burst = data.mbps[320:680]
        assert fraction_of_time_at_least(
            burst, CRITICAL_MBPS * 0.999
        ) >= 0.93
        # And the recovery transfer actually moved a lot of data.
        assert kept["recovery"].mean_mbps > 30.0

    def test_fair_queuing_lets_recovery_disturb_data(self, realization):
        # The counterfactual: MSFQ weights recovery traffic by its demand,
        # so during the burst the critical stream loses its share.
        from repro.harness.experiment import run_schedule_experiment

        result = run_schedule_experiment(
            MSFQScheduler(),
            realization,
            [critical_spec(), recovery_spec()],
            warmup_intervals=200,
        )
        data = result.stream_series("data")
        assert fraction_of_time_at_least(data, CRITICAL_MBPS * 0.999) < 0.90

    def test_recovery_throughput_comparable(self, realization):
        # Isolation does not starve the recovery traffic: PGOS gives it
        # the leftover, which is most of the overlay's spare capacity.
        service = IQPathsService(realization, warmup_intervals=200)
        service.open_stream(critical_spec())
        service.open_stream(recovery_spec())
        service.advance(60.0)
        recovery = service.report("recovery").mean_mbps
        total_avail = float(
            np.mean(
                sum(
                    realization.available[p].available_mbps[200:800]
                    for p in realization.path_names()
                )
            )
        )
        assert recovery >= (total_avail - CRITICAL_MBPS) * 0.8
