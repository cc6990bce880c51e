"""Typed trace events, keyed to simulation time.

One event class covers every layer; *typing* lives in the
``(category, name)`` pair, drawn from the registries below so producers
and consumers (``tools/trace_report.py``) agree on spellings.  Events
carry two join keys besides their payload: ``stream_id`` (the monotone
integer the middleware assigns at open time) and ``path`` (the overlay
path label), so events from different layers correlate without
string-matching stream names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ConfigurationError


class Category:
    """Event categories, one per instrumented layer."""

    ENGINE = "engine"
    TRANSPORT = "transport"
    SCHEDULER = "scheduler"
    MONITOR = "monitor"
    HEALTH = "health"
    SERVICE = "service"
    HARNESS = "harness"
    RUNNER = "runner"
    WORKLOAD = "workload"
    CHECKPOINT = "checkpoint"


#: Every known category (validation + exhaustive round-trip tests).
CATEGORIES = (
    Category.ENGINE,
    Category.TRANSPORT,
    Category.SCHEDULER,
    Category.MONITOR,
    Category.HEALTH,
    Category.SERVICE,
    Category.HARNESS,
    Category.RUNNER,
    Category.WORKLOAD,
    Category.CHECKPOINT,
)

#: Known event names per category.  The bus accepts unknown names (new
#: instrumentation should not crash old consumers) but everything the
#: repo itself emits is registered here.
EVENT_NAMES: dict[str, tuple[str, ...]] = {
    Category.ENGINE: ("heap_compacted",),
    Category.TRANSPORT: ("window", "path_blocked"),
    Category.SCHEDULER: ("remap", "quarantine"),
    Category.MONITOR: ("cdf_refresh", "cdf_shift"),
    Category.HEALTH: ("transition",),
    Category.SERVICE: (
        "stream_open",
        "stream_close",
        "admission_upcall",
        "degradation",
        "stream_shed",
        "stream_downgraded",
        "stream_restored",
        "window_shortfall",
    ),
    Category.HARNESS: ("campaign_start", "campaign_end"),
    # The experiment orchestrator (repro.runner): its "virtual time" is
    # wall-clock seconds since the run started.
    Category.RUNNER: (
        "run_start",
        "spec_start",
        "spec_end",
        "spec_retry",
        "run_end",
    ),
    # The multi-tenant workload engine (repro.workload): session-level
    # arrival/departure churn driven against the middleware.
    Category.WORKLOAD: (
        "workload_start",
        "session_arrival",
        "session_admitted",
        "session_degraded",
        "session_rejected",
        "session_close",
        "workload_end",
    ),
    # Crash-safe execution (repro.checkpoint): snapshot lifecycle, so
    # resume points appear in causal chains next to the virtual time
    # they captured.
    Category.CHECKPOINT: (
        "snapshot_write",
        "snapshot_restore",
        "snapshot_reject",
    ),
}


@dataclass(slots=True)
class TraceEvent:
    """One structured record on the trace bus.

    Attributes
    ----------
    sim_time:
        Virtual time of the event (session seconds for interval-stepped
        layers, simulator clock for the packet engine).
    category:
        Producing layer, one of :data:`CATEGORIES`.
    name:
        Event type within the category (see :data:`EVENT_NAMES`).
    seq:
        Bus-assigned monotone sequence number; total order even among
        events sharing a ``sim_time``.
    stream_id:
        Stable integer ID of the stream involved, if any.
    path:
        Overlay path label involved, if any.
    fields:
        JSON-serializable payload.
    """

    sim_time: float
    category: str
    name: str
    seq: int = 0
    stream_id: Optional[int] = None
    path: Optional[str] = None
    fields: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.category not in CATEGORIES:
            raise ConfigurationError(
                f"unknown event category {self.category!r}; "
                f"expected one of {CATEGORIES}"
            )

    def to_json(self) -> str:
        """One JSONL line; omits null join keys to keep traces compact."""
        record: dict[str, Any] = {
            "t": self.sim_time,
            "cat": self.category,
            "name": self.name,
            "seq": self.seq,
        }
        if self.stream_id is not None:
            record["stream_id"] = self.stream_id
        if self.path is not None:
            record["path"] = self.path
        if self.fields:
            record["fields"] = self.fields
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        """Inverse of :meth:`to_json`."""
        record = json.loads(line)
        return cls(
            sim_time=float(record["t"]),
            category=record["cat"],
            name=record["name"],
            seq=int(record.get("seq", 0)),
            stream_id=record.get("stream_id"),
            path=record.get("path"),
            fields=record.get("fields", {}),
        )
