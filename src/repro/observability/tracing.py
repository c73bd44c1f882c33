"""The one telemetry primitive: a tracer of spans that carry attributes and events.

A :class:`Tracer` watches one run (a pipeline rank, a serving process,
a CLI command).  It records

* **spans** — a tree of timed :class:`SpanRecord` nodes; ``span(name,
  **attrs)`` opens a child under the current one and stamps its duration
  on exit;
* **events** — ``emit(kind, **fields)`` records a point event, stamped
  with the tracer's **run id** and a sequence number, in a ring of the
  newest :data:`EVENT_RING` events, on the emitting thread's innermost
  open span, and — when the tracer has an ``events_path`` — as one line
  of a JSON-lines file;
* **profiles** — under ``profile=True`` every span also records
  ``wall_seconds`` and ``cpu_seconds``, and the outermost span on each
  thread runs under :mod:`cProfile` and records ``calls`` and ``top``
  (its :data:`PROFILE_TOP` hottest functions by cumulative time).
  CPython allows one deterministic profiler per thread, hence outermost
  only.  A span whose ``cpu_seconds`` sits far below its
  ``wall_seconds`` is blocked on I/O or a lock, not on numerics.

Lower layers never hold a tracer: they call the module-level
:func:`span` and :func:`emit`, which act on the *ambient* tracer
installed by :meth:`Tracer.activate` (a :mod:`contextvars` variable).
With no tracer active each is one context-variable lookup and one
``None`` check, so instrumentation stays unconditional.  Context
variables do not cross threads: a host that runs work on its own threads
re-activates its tracer inside the thread body.

A tracer may be shared across threads: the open-span stack is
thread-local, so spans opened by one thread (say, the serving updater)
nest only under that thread's own open spans.  Each thread's outermost
spans become roots, kept in a lock-protected ring of the newest
:data:`ROOT_RING`; every record carries the opening thread's ``tid``.
Span ``start`` offsets are seconds since the tracer's construction.

Event schema (every event)::

    {"run_id": "run-8f13…", "seq": 17, "ts": 1754650000.123,
     "kind": "solve_end", ...kind-specific fields}

``ts`` is wall-clock epoch seconds; ``seq`` is unique and ordered per
tracer (not per thread).  Fields are flat JSON scalars in the file;
numpy scalars are coerced, anything else falls back to ``repr``.

Examples
--------
>>> tracer = Tracer()
>>> with tracer.activate(), tracer.span("outer"):
...     with span("inner", detail=42):
...         event = emit("tick", n=1)
>>> [root.name for root in tracer.roots]
['outer']
>>> inner = tracer.roots[0].children[0]
>>> inner.meta["detail"], inner.events[0]["kind"], event["run_id"] == tracer.run_id
(42, 'tick', True)
>>> emit("orphan") is None   # no active tracer: a no-op
True
"""

from __future__ import annotations

import cProfile
import json
import pstats
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..errors import ObservabilityError

__all__ = [
    "EVENT_RING",
    "PROFILE_TOP",
    "ROOT_RING",
    "SpanRecord",
    "Tracer",
    "current_tracer",
    "emit",
    "format_tree",
    "new_run_id",
    "read_events",
    "scalar_attrs",
    "span",
]

#: Recent events a tracer keeps in memory (``/events`` and exports read them).
EVENT_RING = 4096
#: Root spans a tracer keeps (a serving process opens one per update).
ROOT_RING = 256
#: Hottest functions recorded on each cProfile'd span.
PROFILE_TOP = 10


def new_run_id() -> str:
    """A fresh correlation id (``run-`` + 12 hex chars)."""
    return "run-" + uuid.uuid4().hex[:12]


@dataclass(slots=True)
class SpanRecord:
    """One timed span: a node of the trace tree.

    ``start`` is seconds since the owning tracer's epoch; ``duration`` is
    filled in when the span exits (``-1.0`` while still open).  ``tid``
    is the identity of the thread that opened the span; ``events`` are
    the events emitted while this was that thread's innermost open span.
    """

    name: str
    start: float
    duration: float = -1.0
    meta: dict[str, object] = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)
    tid: int = 0

    def walk(self) -> Iterator["SpanRecord"]:
        """This span followed by all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def as_dict(self) -> dict[str, object]:
        """JSON-ready nested representation."""
        out: dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.events:
            out["events"] = list(self.events)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children]
        return out


class Tracer:
    """Spans, events and profiles of one run.

    Parameters
    ----------
    events_path:
        Append every event to this JSON-lines file.  The file is opened
        for each write, so a tracer never holds it open.
    profile:
        Record wall/CPU seconds on every span and a cProfile table on
        the outermost span per thread.
    """

    __slots__ = (
        "run_id",
        "events_path",
        "profile",
        "_roots",
        "_events",
        "_seq",
        "_local",
        "_lock",
        "_epoch",
    )

    def __init__(
        self, *, events_path: str | Path | None = None, profile: bool = False
    ) -> None:
        self.run_id = new_run_id()
        self.events_path = None if events_path is None else Path(events_path)
        if self.events_path is not None:
            self.events_path.parent.mkdir(parents=True, exist_ok=True)
        self.profile = bool(profile)
        self._roots: deque[SpanRecord] = deque(maxlen=ROOT_RING)
        self._events: deque[dict] = deque(maxlen=EVENT_RING)
        self._seq = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    @property
    def roots(self) -> list[SpanRecord]:
        """Snapshot of the root spans (oldest first)."""
        with self._lock:
            return list(self._roots)

    def _stack(self) -> list[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[SpanRecord]:
        """Open a child span under this thread's innermost open span."""
        record = SpanRecord(
            name=name,
            start=time.perf_counter() - self._epoch,
            meta=attrs,
            tid=threading.get_ident(),
        )
        stack = self._stack()
        if stack:
            stack[-1].children.append(record)
        else:
            with self._lock:
                self._roots.append(record)
        stack.append(record)
        t0 = time.perf_counter()
        try:
            if self.profile:
                with _profiled(record, outermost=len(stack) == 1):
                    yield record
            else:
                yield record
        finally:
            record.duration = time.perf_counter() - t0
            stack.pop()

    def emit(self, kind: str, **fields: object) -> dict:
        """Record one event; returns the event dict (already stamped)."""
        with self._lock:
            self._seq += 1
            event: dict = {
                "run_id": self.run_id,
                "seq": self._seq,
                "ts": time.time(),
                "kind": str(kind),
            }
            event.update(fields)
            self._events.append(event)
            if self.events_path is not None:
                with self.events_path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(event, default=_json_default) + "\n")
        stack = self._stack()
        if stack:
            stack[-1].events.append(event)
        return event

    def events(
        self, kind: str | None = None, *, limit: int | None = None
    ) -> list[dict]:
        """Recent events (oldest first), optionally filtered by kind.

        ``limit`` keeps the newest ``limit`` events; ``0`` keeps none.
        """
        if limit is not None and limit < 0:
            raise ObservabilityError(f"limit must be >= 0, got {limit!r}")
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e["kind"] == kind]
        if limit is not None:
            out = out[-limit:] if limit else []
        return out

    @property
    def events_emitted(self) -> int:
        """Events emitted so far (including any rotated out of the ring)."""
        with self._lock:
            return self._seq

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Install this tracer as the ambient one for :func:`span`/:func:`emit`.

        Ambience is per-thread/per-task (a context variable): a worker
        thread that should feed the same tracer re-activates inside the
        thread body.
        """
        token = _active_tracer.set(self)
        try:
            yield self
        finally:
            _active_tracer.reset(token)

    def walk(self) -> Iterator[SpanRecord]:
        """All spans, depth-first across roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[SpanRecord]:
        """Every span with the given name, in traversal order."""
        return [s for s in self.walk() if s.name == name]

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation of the whole trace."""
        return {"spans": [root.as_dict() for root in self.roots]}


@contextmanager
def _profiled(record: SpanRecord, *, outermost: bool) -> Iterator[None]:
    """Wall/CPU seconds for one span; cProfile too when it is outermost."""
    prof: cProfile.Profile | None = None
    if outermost:
        prof = cProfile.Profile()
        try:
            prof.enable()
        except ValueError:  # another deterministic profiler owns the thread
            prof = None
    wall0 = time.perf_counter()
    cpu0 = time.thread_time()
    try:
        yield
    finally:
        if prof is not None:
            prof.disable()
        record.meta["wall_seconds"] = time.perf_counter() - wall0
        record.meta["cpu_seconds"] = time.thread_time() - cpu0
        if prof is not None:
            stats = pstats.Stats(prof)
            record.meta["calls"] = int(stats.total_calls)
            record.meta["top"] = _top_functions(stats)


def _top_functions(stats: pstats.Stats) -> list[dict]:
    """The :data:`PROFILE_TOP` hottest rows by cumulative time."""
    rows = [
        {
            "function": f"{filename}:{line}({func})",
            "calls": int(nc),
            "tottime_seconds": float(tt),
            "cumtime_seconds": float(ct),
        }
        for (filename, line, func), (_cc, nc, tt, ct, _callers)
        in stats.stats.items()
    ]
    rows.sort(key=lambda r: r["cumtime_seconds"], reverse=True)
    return rows[:PROFILE_TOP]


_active_tracer: ContextVar[Tracer | None] = ContextVar(
    "repro_active_tracer", default=None
)


def current_tracer() -> Tracer | None:
    """The ambient tracer installed by :meth:`Tracer.activate`, if any."""
    return _active_tracer.get()


@contextmanager
def span(name: str, **attrs: object) -> Iterator[SpanRecord | None]:
    """Span against the ambient tracer; a no-op when none is active.

    >>> with span("orphan") as record:      # no active tracer
    ...     record is None
    True
    """
    tracer = _active_tracer.get()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs) as record:
        yield record


def emit(kind: str, **fields: object) -> dict | None:
    """Emit on the ambient tracer; a no-op returning ``None`` without one."""
    tracer = _active_tracer.get()
    if tracer is None:
        return None
    return tracer.emit(kind, **fields)


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSON-lines event file back into event dicts.

    Torn trailing lines (a crash mid-write) are skipped, never raised:
    an event file must stay readable after the process it described died.
    """
    out: list[dict] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return out


def scalar_attrs(meta: dict[str, object]) -> dict[str, object]:
    """The scalar attributes of a span (series and tables left out)."""
    return {
        key: value
        for key, value in meta.items()
        if not isinstance(value, (list, tuple, dict))
    }


def format_tree(node: SpanRecord | Tracer, *, indent: int = 0) -> str:
    """Render a span tree (or a whole tracer) as an indented text outline.

    Only scalar attributes are shown (floats to four significant
    digits); per-iteration series and cProfile tables stay in the JSON
    export.
    """
    if isinstance(node, Tracer):
        return "\n".join(format_tree(root) for root in node.roots)
    pad = "  " * indent
    attrs = scalar_attrs(node.meta)
    meta = ""
    if attrs:
        meta = "  [" + ", ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in attrs.items()
        ) + "]"
    lines = [f"{pad}{node.name}: {node.duration * 1e3:.2f} ms{meta}"]
    for child in node.children:
        lines.append(format_tree(child, indent=indent + 1))
    return "\n".join(lines)


def _json_default(value: object) -> object:
    """Coerce non-JSON values: numpy scalars to numbers, rest to repr."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, Path):
        return str(value)
    return repr(value)
