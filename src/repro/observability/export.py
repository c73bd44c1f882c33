"""Assemble and write the combined telemetry payload.

The CLI's ``--metrics-out PATH`` flag (on ``rank`` and ``figures``) dumps
one JSON document containing the telemetry sources side by side:

* ``metrics`` — the :class:`~repro.observability.metrics.MetricsRegistry`
  exposition (counters, gauges, histograms);
* ``trace`` — the per-run span tree (pipeline stages with nested solver
  spans);
* ``solvers`` — per-solve :class:`~repro.observability.progress.SolverRun`
  records with full residual curves and step timings;
* ``events`` — the run's correlated event log tail
  (:class:`~repro.observability.events.EventLog`);
* ``profiles`` — per-stage :class:`~repro.observability.profiling.Profiler`
  records when profiling was enabled.

``PATH`` ending in ``.prom`` selects the Prometheus text format instead
(registry only — the other sources have no Prometheus analogue).

:func:`to_chrome_trace` renders any span tree in the Chrome trace-event
format (the ``/trace`` scrape endpoint serves it live): open
``chrome://tracing`` or https://ui.perfetto.dev and load the JSON.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

from .events import EventLog
from .metrics import MetricsRegistry, get_registry
from .profiling import Profiler
from .progress import SolverTelemetry
from .tracing import SpanRecord, Tracer

__all__ = ["build_metrics_payload", "write_metrics", "to_chrome_trace"]


def build_metrics_payload(
    *,
    registry: MetricsRegistry | None = None,
    trace: Tracer | SpanRecord | None = None,
    telemetry: SolverTelemetry | None = None,
    events: EventLog | None = None,
    profiler: Profiler | None = None,
    meta: dict[str, object] | None = None,
) -> dict[str, object]:
    """The combined JSON-ready telemetry document."""
    from .. import __version__

    payload: dict[str, object] = {
        "generator": f"repro {__version__}",
        "meta": dict(meta or {}),
        "metrics": (registry or get_registry()).as_dict(),
    }
    if trace is not None:
        payload["trace"] = trace.as_dict()
    if telemetry is not None:
        payload["solvers"] = telemetry.as_dict()
    if events is not None:
        payload["meta"].setdefault("run_id", events.run_id)  # type: ignore[union-attr]
        payload["events"] = events.events()
    if profiler is not None:
        payload["profiles"] = profiler.as_dict()["profiles"]
    return payload


def write_metrics(
    path: str | Path,
    *,
    registry: MetricsRegistry | None = None,
    trace: Tracer | SpanRecord | None = None,
    telemetry: SolverTelemetry | None = None,
    events: EventLog | None = None,
    profiler: Profiler | None = None,
    meta: dict[str, object] | None = None,
) -> Path:
    """Write telemetry to ``path`` (JSON, or Prometheus text for ``.prom``).

    Missing parent directories are created.  Returns the path written.
    """
    path = Path(path)
    if path.suffix == ".prom":
        text = (registry or get_registry()).to_prometheus()
    else:
        payload = build_metrics_payload(
            registry=registry,
            trace=trace,
            telemetry=telemetry,
            events=events,
            profiler=profiler,
            meta=meta,
        )
        text = json.dumps(payload, indent=2, sort_keys=True, default=repr) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _chrome_args(meta: dict[str, object]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in meta.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def to_chrome_trace(
    trace: Tracer | SpanRecord | Iterable[SpanRecord],
    *,
    pid: int | None = None,
) -> dict[str, object]:
    """Render spans as a Chrome trace-event document.

    Every span becomes one complete (``"ph": "X"``) event with
    microsecond ``ts``/``dur`` relative to the tracer epoch; the span's
    opening thread id becomes the trace ``tid`` so concurrent threads
    (e.g. the serving updater vs. readers) land on separate tracks.
    Still-open spans (``duration < 0``) export with ``dur`` 0 and an
    ``args.open`` marker.
    """
    if isinstance(trace, Tracer):
        roots: Iterable[SpanRecord] = trace.roots
    elif isinstance(trace, SpanRecord):
        roots = (trace,)
    else:
        roots = tuple(trace)
    process = os.getpid() if pid is None else int(pid)
    trace_events: list[dict[str, object]] = []
    for root in roots:
        for record in root.walk():
            args = _chrome_args(record.meta)
            duration = record.duration
            if duration < 0:
                duration = 0.0
                args["open"] = True
            trace_events.append(
                {
                    "name": record.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": record.start * 1e6,
                    "dur": duration * 1e6,
                    "pid": process,
                    "tid": record.tid or 0,
                    "args": args,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
