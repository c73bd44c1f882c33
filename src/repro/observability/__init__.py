"""Observability: metrics, the span tracer, live endpoint, perf ledger.

Cooperating layers, all optional and all zero-cost when unused:

* :mod:`~repro.observability.metrics` — process-global
  :class:`MetricsRegistry` of counters / gauges / histograms with JSON and
  Prometheus-text exposition.  The pipeline records stage timings and
  solver iteration counts here at *stage* granularity.
* :mod:`~repro.observability.tracing` — the one telemetry primitive.  A
  :class:`Tracer` owns a run id, a tree of :func:`span` records carrying
  attributes and point events, a ring of the events that :func:`emit`
  records (mirrored to a JSON-lines file when asked), and the profile
  switch (wall/CPU seconds on every span, cProfile on the outermost span
  per thread).  Each solver's ``solve:<label>`` span carries its
  convergence record and residual curve.  A host (the pipeline, the
  serving service, the CLI) builds one tracer and activates it once.
* :mod:`~repro.observability.endpoint` — :class:`TelemetryServer`, the
  live scrape endpoint (``/metrics``, ``/health``, ``/trace``,
  ``/events``) on a stdlib HTTP daemon thread.
* :mod:`~repro.observability.export` — the ``--metrics-out`` document
  built from the registry and one tracer.
* :mod:`~repro.observability.ledger` — the perf-trajectory ledger:
  committed benchmark results folded into one schema-validated trend
  table with a CI regression gate (``repro ledger compare``).

See the "Observability" section of ``docs/architecture.md``.
"""

from .endpoint import TelemetryServer
from .export import build_metrics_payload, to_chrome_trace, write_metrics
from .metrics import (
    DEFAULT_ITERATION_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    get_registry,
    reset_registry,
)
from .tracing import (
    SpanRecord,
    Tracer,
    current_tracer,
    emit,
    format_tree,
    new_run_id,
    read_events,
    span,
)

__all__ = [
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "get_registry",
    "reset_registry",
    "diff_snapshots",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_ITERATION_BUCKETS",
    # tracing
    "Tracer",
    "SpanRecord",
    "span",
    "emit",
    "current_tracer",
    "new_run_id",
    "read_events",
    "format_tree",
    # endpoint
    "TelemetryServer",
    # export
    "build_metrics_payload",
    "write_metrics",
    "to_chrome_trace",
]
