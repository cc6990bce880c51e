"""Virtual-time observability: structured tracing, metrics, introspection.

Every run of the reproduction can explain itself: the layers that make
scheduling decisions (engine, transport, PGOS, monitoring, health,
middleware) emit typed :class:`~repro.obs.events.TraceEvent` records onto
a ring-buffered :class:`~repro.obs.trace.TraceBus` and update a
:class:`~repro.obs.metrics.MetricsRegistry`, both keyed to *simulation*
time.  ``tools/trace_report.py`` turns the exported JSONL trace back into
causal chains ("why did stream X miss its guarantee in window k").

Observability is opt-in per run.  The default is
:data:`~repro.obs.context.NULL_OBS`, whose trace bus and registry are
inert; hot paths guard every emission with ``if obs.enabled:``, so a
disabled run pays one attribute lookup per instrumentation site.

Typical use::

    from repro.obs import Observability

    obs = Observability()                       # enabled
    result = run_packet_session(..., obs=obs)
    obs.trace.export_jsonl("trace.jsonl")
    obs.metrics.export_json("metrics.json")
"""

from repro.obs.events import (
    CATEGORIES,
    Category,
    EVENT_NAMES,
    TraceEvent,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
)
from repro.obs.prof import (
    NULL_PROFILER,
    NullSpanProfiler,
    ProfileReport,
    SpanProfiler,
)
from repro.obs.prom import export_prometheus, render_prometheus
from repro.obs.trace import NullTraceBus, TraceBus
from repro.obs.context import NULL_OBS, Observability

__all__ = [
    "CATEGORIES",
    "Category",
    "Counter",
    "EVENT_NAMES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_PROFILER",
    "NullMetricsRegistry",
    "NullSpanProfiler",
    "NullTraceBus",
    "Observability",
    "ProfileReport",
    "SpanProfiler",
    "TraceBus",
    "TraceEvent",
    "export_prometheus",
    "render_prometheus",
]
