"""Deterministic discrete-event simulation substrate.

The IQ-Paths evaluation runs on an emulated testbed; this package provides
the virtual-time machinery that replaces it: an event-driven engine
(:mod:`repro.sim.engine`), generator-based processes
(:mod:`repro.sim.process`), reproducible per-component random streams
(:mod:`repro.sim.random`), and the vectorized struct-of-arrays delivery
engine (:mod:`repro.sim.vectorized`) that advances all active streams
per interval as columnar numpy ops — proven bit-identical to the scalar
reference loop (a test oracle) by
``tests/property/test_sim_vectorized.py``.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.process import Process, Timeout
from repro.sim.random import RandomStreams
from repro.sim.vectorized import VectorizedDelivery

__all__ = [
    "Event",
    "Simulator",
    "Process",
    "Timeout",
    "RandomStreams",
    "VectorizedDelivery",
]
