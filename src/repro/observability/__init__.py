"""Observability: metrics, tracing, events, profiling, live endpoint.

Cooperating layers, all optional and all zero-cost when unused:

* :mod:`~repro.observability.metrics` — process-global
  :class:`MetricsRegistry` of counters / gauges / histograms with JSON and
  Prometheus-text exposition.  The pipeline records stage timings and
  solver iteration counts here at *stage* granularity.
* :mod:`~repro.observability.tracing` — nestable :func:`span` context
  managers building a per-run trace tree
  (:class:`~repro.core.pipeline.SpamResilientPipeline` traces its five
  stages; solvers attach nested spans when a tracer is active).  Safe to
  share across threads: each thread nests independently.
* :mod:`~repro.observability.events` — the correlated JSON-lines event
  log: one ``run_id`` stitches a run together from admission to snapshot
  publish, across pipeline stages, solves, fallbacks, checkpoints, and
  the serving updater.
* :mod:`~repro.observability.profiling` — opt-in per-stage cProfile and
  wall/CPU accounting behind ``ObservabilityParams(profile=True)`` /
  ``--profile``.
* :mod:`~repro.observability.endpoint` — :class:`TelemetryServer`, the
  live scrape endpoint (``/metrics``, ``/health``, ``/trace``,
  ``/events``) on a stdlib HTTP daemon thread.
* :mod:`~repro.observability.progress` — the :class:`ProgressCallback`
  per-iteration hook threaded through ``RankingParams.progress``, with
  :class:`SolverTelemetry` as the standard collector of residual curves,
  matvec timings, the operator's kernel tag, and dangling-mass stats.
* :mod:`~repro.observability.ledger` — the perf-trajectory ledger:
  committed benchmark results folded into one schema-validated trend
  table with a CI regression gate (``repro ledger compare``).

See the "Observability" section of ``docs/architecture.md``.
"""

from .endpoint import TelemetryServer
from .events import (
    EventLog,
    current_event_log,
    current_run_id,
    emit,
    new_run_id,
    read_events,
)
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
from .profiling import ProfileRecord, Profiler, current_profiler, profile_block
from .progress import ProgressCallback, SolverRun, SolverTelemetry
from .tracing import SpanRecord, Tracer, current_tracer, format_tree, span

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
    "current_tracer",
    "format_tree",
    # events
    "EventLog",
    "new_run_id",
    "emit",
    "current_event_log",
    "current_run_id",
    "read_events",
    # profiling
    "Profiler",
    "ProfileRecord",
    "profile_block",
    "current_profiler",
    # endpoint
    "TelemetryServer",
    # solver telemetry
    "ProgressCallback",
    "SolverRun",
    "SolverTelemetry",
    # export
    "build_metrics_payload",
    "write_metrics",
    "to_chrome_trace",
]
