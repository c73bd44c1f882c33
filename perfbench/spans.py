"""In-memory spans recorded from outside the program, for traced runs.

A :class:`Recorder` keeps every span (name, start, end, parent, request
id) in a list and writes nothing until the run ends.  :class:`Probes`
installs span wrappers around the public calls of each layer — at the name
the caller actually looks up, e.g. ``repro.core.pipeline.spam_proximity``
rather than the defining module's copy — and restores the originals on
exit, so untraced code runs the program exactly as shipped.

A span's self time is its duration minus the part of its interval that its
children cover (:func:`self_times`); summed over a root's subtree the self
times partition the root's duration, which is what lets per-layer self
times add up to the end-to-end time of a rank call.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    rid: int | None = None
    meta: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": self.rid,
            "meta": self.meta,
        }


class Recorder:
    """Span store with one open-span stack per thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, rid: int | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1].sid if stack else None
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent=parent, rid=rid)
            self.spans.append(span)
        stack.append(span)
        span.start = self._clock()
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:
            stack.remove(span)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        rid: int | None = None,
        meta: dict | None = None,
    ) -> Span:
        """Record an already-stamped span (e.g. one request's round trip)."""
        with self._lock:
            span = Span(len(self.spans), name, start, end, parent, rid, meta)
            self.spans.append(span)
        return span

    def nbytes(self) -> int:
        """Approximate memory the recorded spans hold."""
        per_span = sys.getsizeof(Span(0, "", 0.0))
        metas = sum(sys.getsizeof(s.meta) for s in self.spans if s.meta)
        return len(self.spans) * per_span + metas + sys.getsizeof(self.spans)


def covered(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - covered(span.start, span.end, children[span.sid])
        for span in spans
    }


def subtrees(spans: list[Span], roots: Iterable[int]) -> dict[int, list[Span]]:
    """Spans grouped under each root id (spans are stored parents-first)."""
    wanted = set(roots)
    root_of: dict[int, int] = {}
    groups: dict[int, list[Span]] = {sid: [] for sid in wanted}
    for span in spans:
        if span.sid in wanted:
            root_of[span.sid] = span.sid
        elif span.parent is not None and span.parent in root_of:
            root_of[span.sid] = root_of[span.parent]
        else:
            continue
        groups[root_of[span.sid]].append(span)
    return groups


class Probes:
    """Installs span wrappers on functions and methods; restores them."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._targets: list[tuple[Any, str, str, Callable | None, str]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def function(self, owner: Any, attr: str, name: str, after: Callable | None = None) -> None:
        """Wrap a module-level function (or any plain attribute call)."""
        self._targets.append((owner, attr, name, after, "function"))

    def method(self, cls: type, attr: str, name: str, after: Callable | None = None) -> None:
        """Wrap an instance method defined on ``cls``."""
        self._targets.append((cls, attr, name, after, "method"))

    def classmethod(self, cls: type, attr: str, name: str, after: Callable | None = None) -> None:
        """Wrap a classmethod defined on ``cls``."""
        self._targets.append((cls, attr, name, after, "classmethod"))

    def _wrap(self, fn: Callable, name: str, after: Callable | None) -> Callable:
        recorder = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                span.meta = after(args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probes are already installed")
        for owner, attr, name, after, kind in self._targets:
            original = owner.__dict__[attr] if kind != "function" else getattr(owner, attr)
            if kind == "classmethod":
                wrapped: Any = classmethod(self._wrap(original.__func__, name, after))
            else:
                wrapped = self._wrap(original, name, after)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator[None]:
        self.install()
        try:
            yield
        finally:
            self.restore()


def program_probes(recorder: Recorder) -> Probes:
    """Span wrappers around the public call of every layer the benchmark times."""
    import repro.core.pipeline as pipeline
    import repro.sources.consensus as consensus
    from repro.linalg.operator import (
        BlockedOperator,
        CsrOperator,
        ReversedOperator,
        ThrottledOperator,
    )
    from repro.linalg.registry import SolverRegistry
    from repro.serving.fleet import ReplicaService
    from repro.serving.snapshot import SnapshotStore
    from repro.sources.sourcegraph import SourceGraph
    from repro.webgraph.store import ShardedGraphStore

    def iterations(args, result) -> dict:
        return {"iterations": int(result.convergence.iterations)}

    probes = Probes(recorder)
    probes.method(pipeline.SpamResilientPipeline, "rank", "core.rank")
    probes.method(pipeline.SpamResilientPipeline, "rank_store", "core.rank_store")
    probes.classmethod(
        SourceGraph,
        "from_page_graph",
        "sources.from_page_graph",
        after=lambda args, result: {"source_edges": int(result.matrix.nnz)},
    )
    probes.function(
        consensus,
        "quotient_unique_page_counts",
        "sources.quotient",
        after=lambda args, result: {"page_edges": int(args[0].n_edges)},
    )
    probes.function(pipeline, "spam_proximity", "throttle.proximity", after=iterations)
    probes.function(pipeline, "assign_kappa", "throttle.assign_kappa")
    probes.function(pipeline, "spam_resilient_sourcerank", "ranking.solve", after=iterations)
    probes.method(SolverRegistry, "solve", "ranking.registry_solve", after=iterations)
    for cls, tag in (
        (CsrOperator, "csr"),
        (ReversedOperator, "reversed"),
        (ThrottledOperator, "throttled"),
        (BlockedOperator, "blocked"),
    ):
        probes.method(cls, "rmatvec", f"linalg.rmatvec.{tag}")
    probes.method(BlockedOperator, "__init__", "linalg.open")
    probes.method(
        ShardedGraphStore,
        "load_block",
        "webgraph.load_block",
        after=lambda args, result: {
            "payload_bytes": int(args[0].shards[args[1]].payload_bytes)
        },
    )
    probes.method(SnapshotStore, "publish", "snapshot.publish")
    probes.method(SnapshotStore, "latest", "snapshot.latest")
    probes.method(
        ReplicaService,
        "handle",
        "fleet.handle",
        after=lambda args, result: {"op": args[1].get("op")},
    )
    return probes
