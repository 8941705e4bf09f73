"""repro.telemetry — spans, counters, and exporters for the pipeline.

The observability layer every benchmark and perf PR reads from:

- :mod:`repro.telemetry.tracer` — nested spans over monotonic clocks,
  with a process-global no-op default (:func:`span` costs ~nothing when
  tracing is off);
- :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms behind the same global-with-no-op-default pattern;
- :mod:`repro.telemetry.names` — the span taxonomy and metric catalogue;
- :mod:`repro.telemetry.exporters` — Chrome trace-event JSON (Perfetto),
  Prometheus text exposition, and a human-readable summary tree.
"""

from repro.telemetry import names
from repro.telemetry.atomic import atomic_write_text
from repro.telemetry.exporters import (
    chrome_trace,
    chrome_trace_events,
    prometheus_text,
    summary_tree,
)
from repro.telemetry.metrics import (
    LATENCY_BUCKETS,
    WORK_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    count,
    get_metrics,
    set_gauge,
    set_metrics,
)
from repro.telemetry.tracer import (
    NullTracer,
    Span,
    Tracer,
    export_spans,
    get_tracer,
    graft_spans,
    set_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "names",
    "atomic_write_text",
    "chrome_trace",
    "chrome_trace_events",
    "prometheus_text",
    "summary_tree",
    "LATENCY_BUCKETS",
    "WORK_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "count",
    "get_metrics",
    "set_gauge",
    "set_metrics",
    "NullTracer",
    "Span",
    "Tracer",
    "export_spans",
    "get_tracer",
    "graft_spans",
    "set_tracer",
    "span",
    "tracing_enabled",
]
