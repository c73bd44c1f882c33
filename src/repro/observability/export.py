"""Assemble and write the combined telemetry payload.

The CLI's ``--metrics-out PATH`` flag (on ``rank``, ``figures`` and
``serve``) dumps one JSON document built from the metrics registry and
one :class:`~repro.observability.tracing.Tracer`:

* ``metrics`` — the :class:`~repro.observability.metrics.MetricsRegistry`
  exposition (counters, gauges, histograms);
* ``trace`` — the span tree (pipeline stages with nested solver spans);
* ``solvers`` — one run per ``solve:<label>`` span, with its residual
  curve (and, under a profiling tracer, per-iteration step timings);
* ``events`` — the tracer's ring of recent events;
* ``meta`` — caller-supplied keys plus the tracer's ``run_id``.

``PATH`` ending in ``.prom`` selects the Prometheus text format instead
(registry only — spans and events have no Prometheus analogue).

:func:`to_chrome_trace` renders any span tree in the Chrome trace-event
format (the ``/trace`` scrape endpoint serves it live): open
``chrome://tracing`` or https://ui.perfetto.dev and load the JSON.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable

from .metrics import MetricsRegistry, get_registry
from .tracing import SpanRecord, Tracer, scalar_attrs

__all__ = ["build_metrics_payload", "write_metrics", "to_chrome_trace"]

#: Span attributes the engine records on every ``solve:<label>`` span, in
#: the order a solver run lists them.
_RUN_KEYS = (
    "solver",
    "kernel",
    "n",
    "n_dangling",
    "tolerance",
    "max_iter",
    "iterations",
    "converged",
    "final_residual",
    "residuals",
    "step_seconds",
    "dangling_mass",
)


def _solver_runs(spans: Iterable[SpanRecord]) -> dict[str, object]:
    """The ``solvers`` section: one run per ``solve:<label>`` span.

    ``iteration_counts`` sums the iterations of every run per label.
    """
    runs: list[dict[str, object]] = []
    counts: dict[str, int] = {}
    for record in spans:
        if not record.name.startswith("solve:"):
            continue
        label = record.name[len("solve:"):]
        run: dict[str, object] = {"label": label, "wall_seconds": record.duration}
        run.update((k, record.meta[k]) for k in _RUN_KEYS if k in record.meta)
        runs.append(run)
        counts[label] = counts.get(label, 0) + int(run.get("iterations", 0))
    return {"runs": runs, "iteration_counts": counts}


def build_metrics_payload(
    tracer: Tracer | None = None,
    *,
    root: SpanRecord | None = None,
    registry: MetricsRegistry | None = None,
    meta: dict[str, object] | None = None,
) -> dict[str, object]:
    """The combined JSON-ready telemetry document.

    ``root`` narrows ``trace`` and ``solvers`` to one span of the tracer
    (say, one pipeline run); the default exports every root.
    """
    from .. import __version__

    payload: dict[str, object] = {
        "generator": f"repro {__version__}",
        "meta": dict(meta or {}),
        "metrics": (registry or get_registry()).as_dict(),
    }
    if tracer is not None:
        trace: Tracer | SpanRecord = tracer if root is None else root
        payload["meta"].setdefault("run_id", tracer.run_id)  # type: ignore[union-attr]
        payload["trace"] = trace.as_dict()
        payload["solvers"] = _solver_runs(trace.walk())
        payload["events"] = tracer.events()
    return payload


def write_metrics(
    path: str | Path,
    tracer: Tracer | None = None,
    *,
    root: SpanRecord | None = None,
    registry: MetricsRegistry | None = None,
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
            tracer, root=root, registry=registry, meta=meta
        )
        text = json.dumps(payload, indent=2, sort_keys=True, default=repr) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def to_chrome_trace(
    trace: Tracer | SpanRecord | Iterable[SpanRecord],
    *,
    pid: int | None = None,
) -> dict[str, object]:
    """Render spans as a Chrome trace-event document.

    Every span becomes one complete (``"ph": "X"``) event with
    microsecond ``ts``/``dur`` relative to the tracer epoch and the
    span's scalar attributes as ``args``; the span's opening thread id
    becomes the trace ``tid`` so concurrent threads (e.g. the serving
    updater vs. readers) land on separate tracks.  Still-open spans
    (``duration < 0``) export with ``dur`` 0 and an ``args.open`` marker.
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
            args = scalar_attrs(record.meta)
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
