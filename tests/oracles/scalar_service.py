"""The scalar per-stream delivery loop, kept as a test oracle.

:class:`repro.middleware.service.IQPathsService` delivers through the
columnar :class:`repro.sim.vectorized.VectorizedDelivery` engine, whose
contract is bit-identity with the loop below.  The oracle overrides only
``_deliver`` (the product's ``_step_inner`` drives it), and each interval
is one :func:`repro.core.scheduler.deliver_interval` — the step the
figures' ``run_schedule_experiment`` runs too — against the fault-scaled
``_effective_avail``: per-stream backlog accrual, one
``scheduler.allocate`` pass, a per-path water-fill, per-grant accounting,
all on plain Python floats, dicts and lists.

:class:`ScalarReferenceService` keeps its *own* delivery state
(``_delivered`` lists, ``_backlog_bytes`` dict) and never reads the
product's delivery columns, so the series, backlogs, traces and metrics
it produces are an independent derivation.  (The inherited open/close
bookkeeping still files rows in the unused batch; a snapshot's open
columns come from there, and its series are packed with the product's
:func:`repro.series.pack_series`.)

:func:`service_class` makes the workload layer — ``run_scale_scenario``,
``make_scale_run``, ``run_partitioned``,
``run_scale_scenario_checkpointed`` — build the oracle instead of the
product for the duration of a ``with`` block.
"""

from __future__ import annotations

from collections import defaultdict
from unittest import mock

import numpy as np

from repro.core.scheduler import deliver_interval
from repro.errors import ConfigurationError
from repro.middleware.service import (
    IQPathsService,
    StreamHandle,
    StreamReport,
)
from repro.series import pack_series, unpack_series
from repro.workload import scenarios


class ScalarReferenceService(IQPathsService):
    """``IQPathsService`` with the per-object Python delivery loop."""

    def __init__(self, *args, **kwargs):
        self._delivered: dict[str, list[float]] = {}
        self._backlog_bytes: dict[str, float] = {}
        #: The mapping the last counted request build was made under.
        self._built_for = None
        super().__init__(*args, **kwargs)

    # -- stream lifecycle ----------------------------------------------
    def _register_stream(self, spec, *args) -> StreamHandle:
        handle = super()._register_stream(spec, *args)
        self._delivered[spec.name] = []
        self._backlog_bytes[spec.name] = 0.0
        return handle

    def close_stream(self, name: str) -> StreamHandle:
        handle = super().close_stream(name)
        del self._backlog_bytes[name], self._delivered[name]
        return handle

    # -- the loop ------------------------------------------------------
    def _deliver(self, k: int, open_handles) -> None:
        specs = [h.spec for h in self.handles.values()]
        grants = deliver_interval(
            self.scheduler,
            k,
            specs,
            self.path_names,
            lambda p: self._effective_avail(p, k),
            self.dt,
            self._backlog_bytes,
            # The product keeps no drop count.
            defaultdict(float),
        )
        self._count_request_build()
        delivered: dict[str, float] = {}
        for spec in specs:
            # A left fold in path order, as the product sums (``sum()``
            # compensates on Python >= 3.12).
            total = 0.0
            for mbps in grants.get(spec.name, {}).values():
                total += mbps
            delivered[spec.name] = total
            self._delivered[spec.name].append(total)
        if self.obs.enabled:
            self._emit_shortfalls(k, delivered)

    def _count_request_build(self) -> None:
        """Tick ``delivery.template_compiles`` where the product compiles.

        The engine compiles its request templates once per installed
        mapping, and on every step before monitoring history exists;
        this loop rebuilds its requests every step, so it counts the
        same events from what it delivered under: a step without
        history, or a mapping object no step before it used.
        """
        scheduler = self.scheduler
        if not scheduler.has_history:
            self._built_for = None
        elif scheduler.mapping is self._built_for:
            return
        else:
            self._built_for = scheduler.mapping
        if self.obs.enabled:
            self.obs.metrics.counter("delivery.template_compiles").inc()

    # -- checkpointing -------------------------------------------------
    def _delivered_state(self) -> dict[str, str]:
        return {
            name: pack_series(self._delivered[name])
            for name in self.handles
        }

    def _backlog_state(self) -> dict[str, float]:
        return {
            name: float(v) for name, v in self._backlog_bytes.items()
        }

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._built_for = None
        self._backlog_bytes = {
            name: float(v) for name, v in state["backlog_bytes"].items()
        }
        self._delivered = {
            name: unpack_series(state["delivered"][name]).tolist()
            for name in self.handles
        }

    # -- reporting -----------------------------------------------------
    def report(self, name: str) -> StreamReport:
        if name not in self.handles:
            raise ConfigurationError(f"unknown stream {name!r}")
        return StreamReport(
            name=name,
            mbps=np.asarray(self._delivered[name]),
            dt=self.dt,
            target_mbps=self.handles[name].spec.required_mbps,
        )


def service_class(cls: type[IQPathsService]):
    """Context manager: ``repro.workload.scenarios`` builds ``cls`` as
    its service.

    A context manager rather than a ``monkeypatch`` fixture so that
    Hypothesis ``@given`` bodies can install the oracle per example.
    """
    return mock.patch.object(scenarios, "IQPathsService", cls)
