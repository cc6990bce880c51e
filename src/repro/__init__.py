"""IQ-Paths reproduction: predictable data streams across dynamic overlays.

This package reproduces the system described in

    Zhongtang Cai, Vibhore Kumar, Karsten Schwan.
    "IQ-Paths: Predictably High Performance Data Streams across Dynamic
    Network Overlays." HPDC 2006.

Top-level structure:

``repro.sim``
    Deterministic discrete-event simulation engine and seeded RNG streams.
``repro.traces``
    Synthetic bandwidth / cross-traffic trace generators (NLANR-like).
``repro.network``
    Overlay network substrate: links, topologies, paths, the emulated
    Figure-8 testbed.
``repro.transport``
    Packetization and per-path send services with blocking and backoff.
``repro.monitoring``
    Online bandwidth sampling, sliding-window CDFs, predictors.
``repro.core``
    The paper's contribution: statistical guarantees (Lemmas 1 and 2),
    utility specs, admission control, resource mapping, scheduling
    vectors, and the PGOS scheduler.
``repro.baselines``
    WFQ, MSFQ, OptSched, and mean-prediction schedulers.
``repro.apps``
    SmartPointer, GridFTP, and layered-video application models.
``repro.harness``
    Experiment definitions for every figure in the paper's evaluation.
"""

__version__ = "1.0.0"

from repro.core.spec import StreamSpec, WindowConstraint
from repro.core.pgos import PGOSScheduler
from repro.core.guarantees import probabilistic_guarantee, violation_bound
from repro.monitoring.cdf import EmpiricalCDF, SlidingWindowCDF
from repro.monitoring.predictors import PercentilePredictor

__all__ = [
    "__version__",
    "StreamSpec",
    "WindowConstraint",
    "PGOSScheduler",
    "probabilistic_guarantee",
    "violation_bound",
    "EmpiricalCDF",
    "SlidingWindowCDF",
    "PercentilePredictor",
]
