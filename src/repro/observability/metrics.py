"""Metrics primitives: counters, gauges, histograms, and their registry.

A :class:`MetricsRegistry` is a named collection of metric *families*.
Each family has a type (counter / gauge / histogram), a help string, and —
optionally — a fixed set of label names; labeled families hold one child
per distinct label-value combination (the Prometheus data model).  The
registry renders itself both as plain JSON (:meth:`MetricsRegistry.as_dict`)
and in the Prometheus text exposition format
(:meth:`MetricsRegistry.to_prometheus`).

The library instruments itself against a process-global registry obtained
via :func:`get_registry`; hosts that want isolation (tests, benchmarks)
can swap it with :func:`reset_registry` or instantiate their own.

All updates are thread-safe.  Metric updates happen at *stage* granularity
(a handful per pipeline run), never per solver iteration — per-iteration
series live on the solve spans of :mod:`repro.observability.tracing` and
cost nothing unless a profiling tracer is active.

Examples
--------
>>> reg = MetricsRegistry()
>>> reg.counter("repro_runs_total", "Completed runs").inc()
>>> reg.counter("repro_runs_total", "Completed runs").inc(2)
>>> reg.counter("repro_runs_total", "Completed runs").value
3.0
>>> h = reg.histogram("repro_seconds", "Stage time", labelnames=("stage",),
...                   buckets=(0.1, 1.0))
>>> h.labels(stage="rank").observe(0.05)
>>> h.labels(stage="rank").count
1
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Iterable, Mapping

from ..errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "diff_snapshots",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_ITERATION_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Prometheus-style latency buckets (seconds), tuned for solver stages.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0,
)

#: Buckets for iteration counts of the ranking solvers.
DEFAULT_ITERATION_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObservabilityError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Iterable[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ObservabilityError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ObservabilityError(f"duplicate label names in {names!r}")
    return names


def _escape_label_value(value: str) -> str:
    # Exposition format: label values escape backslash, double-quote, and
    # newline (backslash first — escaping must not double-process its own
    # output).
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    # HELP lines escape backslash and newline only (quotes are legal there).
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(str(v))}"' for k, v in labels.items()]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Child:
    """Base for one (labelset, value) sample of a metric family."""

    __slots__ = ("_labels", "_lock")

    def __init__(self, labels: Mapping[str, str], lock: threading.Lock) -> None:
        self._labels = dict(labels)
        self._lock = lock

    @property
    def label_values(self) -> dict[str, str]:
        """The label key→value mapping of this child."""
        return dict(self._labels)


class Counter(_Child):
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, labels: Mapping[str, str], lock: threading.Lock) -> None:
        super().__init__(labels, lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        amount = float(amount)
        if amount < 0:
            raise ObservabilityError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value


class Gauge(_Child):
    """Value that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self, labels: Mapping[str, str], lock: threading.Lock) -> None:
        super().__init__(labels, lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value


class Histogram(_Child):
    """Cumulative-bucket histogram of observed values."""

    __slots__ = ("_bounds", "_counts", "_sum", "_count")

    def __init__(
        self,
        labels: Mapping[str, str],
        lock: threading.Lock,
        bounds: tuple[float, ...],
    ) -> None:
        super().__init__(labels, lock)
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[i] += 1
                    break
            else:
                self._counts[-1] += 1

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, c in zip(self._bounds, self._counts[:-1]):
            running += c
            out.append((bound, running))
        out.append((math.inf, running + self._counts[-1]))
        return out

    def quantile(self, q: float) -> float | None:
        """Bucket-interpolated quantile estimate (``None`` when empty).

        Linear interpolation inside the bucket holding the q-th
        observation, the standard Prometheus ``histogram_quantile``
        estimate.  Observations beyond the last finite bound clamp to
        that bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must lie in [0, 1], got {q!r}")
        with self._lock:
            total = self._count
            if total == 0:
                return None
            rank = q * total
            running = 0
            lower = 0.0
            for bound, count in zip(self._bounds, self._counts[:-1]):
                if running + count >= rank and count > 0:
                    fraction = (rank - running) / count
                    return lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
                running += count
                lower = bound
            return self._bounds[-1] if self._bounds else None


class _Family:
    """A named metric family holding one child per label combination."""

    __slots__ = ("name", "help", "kind", "labelnames", "buckets", "_children", "_lock")

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: tuple[str, ...],
        lock: threading.Lock,
        buckets: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: dict[tuple[str, ...], _Child] = {}
        self._lock = lock
        if not labelnames:
            self._children[()] = self._make_child({})

    def _make_child(self, labels: Mapping[str, str]) -> _Child:
        if self.kind == "counter":
            return Counter(labels, self._lock)
        if self.kind == "gauge":
            return Gauge(labels, self._lock)
        return Histogram(labels, self._lock, self.buckets or DEFAULT_SECONDS_BUCKETS)

    def labels(self, **labels: str) -> _Child:
        """The child for one label-value combination (created on demand)."""
        if set(labels) != set(self.labelnames):
            raise ObservabilityError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child(dict(zip(self.labelnames, key)))
                self._children[key] = child
        return child

    def children(self) -> list[_Child]:
        """All existing children, creation order."""
        with self._lock:
            return list(self._children.values())

    # -- unlabeled convenience: the family proxies its single child --
    def _solo(self) -> _Child:
        if self.labelnames:
            raise ObservabilityError(
                f"metric {self.name!r} is labeled by {self.labelnames}; "
                "call .labels(...) first"
            )
        return self._children[()]


class _CounterFamily(_Family):
    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)  # type: ignore[union-attr]

    @property
    def value(self) -> float:
        return self._solo().value  # type: ignore[union-attr]


class _GaugeFamily(_Family):
    def set(self, value: float) -> None:
        self._solo().set(value)  # type: ignore[union-attr]

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)  # type: ignore[union-attr]

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)  # type: ignore[union-attr]

    @property
    def value(self) -> float:
        return self._solo().value  # type: ignore[union-attr]


class _HistogramFamily(_Family):
    def observe(self, value: float) -> None:
        self._solo().observe(value)  # type: ignore[union-attr]

    @property
    def count(self) -> int:
        return self._solo().count  # type: ignore[union-attr]

    @property
    def sum(self) -> float:
        return self._solo().sum  # type: ignore[union-attr]

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        return self._solo().cumulative_buckets()  # type: ignore[union-attr]

    def quantile(self, q: float) -> float | None:
        return self._solo().quantile(q)  # type: ignore[union-attr]


_FAMILY_CLASSES = {
    "counter": _CounterFamily,
    "gauge": _GaugeFamily,
    "histogram": _HistogramFamily,
}


class MetricsRegistry:
    """Thread-safe collection of metric families.

    Re-registering a name with the same kind returns the existing family
    (so call sites need not coordinate); re-registering with a *different*
    kind raises :class:`~repro.errors.ObservabilityError`.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _register(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Iterable[str],
        buckets: tuple[float, ...] | None = None,
    ) -> _Family:
        _check_name(name)
        labelnames = _check_labelnames(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ObservabilityError(
                        f"metric {name!r} already registered as {family.kind} "
                        f"with labels {family.labelnames}"
                    )
                return family
            if buckets is not None:
                buckets = tuple(sorted(float(b) for b in buckets))
                if not buckets:
                    raise ObservabilityError("histogram needs at least one bucket")
            family = _FAMILY_CLASSES[kind](name, help_text, kind, labelnames, self._lock, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", *, labelnames: Iterable[str] = ()
    ) -> _CounterFamily:
        """Get or create a counter family."""
        return self._register(name, help_text, "counter", labelnames)  # type: ignore[return-value]

    def gauge(
        self, name: str, help_text: str = "", *, labelnames: Iterable[str] = ()
    ) -> _GaugeFamily:
        """Get or create a gauge family."""
        return self._register(name, help_text, "gauge", labelnames)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        *,
        labelnames: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> _HistogramFamily:
        """Get or create a histogram family."""
        return self._register(name, help_text, "histogram", labelnames, buckets)  # type: ignore[return-value]

    def families(self) -> list[_Family]:
        """All registered families, sorted by name."""
        with self._lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def clear(self) -> None:
        """Drop every family (tests / registry reuse)."""
        with self._lock:
            self._families.clear()

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, dict]:
        """JSON-ready representation: ``{name: {type, help, samples}}``."""
        out: dict[str, dict] = {}
        for family in self.families():
            samples = []
            for child in family.children():
                sample: dict[str, object] = {"labels": child.label_values}
                if isinstance(child, Histogram):
                    sample["count"] = child.count
                    sample["sum"] = child.sum
                    sample["buckets"] = [
                        {"le": "+Inf" if b == math.inf else b, "count": c}
                        for b, c in child.cumulative_buckets()
                    ]
                else:
                    sample["value"] = child.value  # type: ignore[union-attr]
                samples.append(sample)
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "samples": samples,
            }
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """The :meth:`as_dict` payload serialized to JSON text."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                labels = child.label_values
                if isinstance(child, Histogram):
                    for bound, cum in child.cumulative_buckets():
                        le = _render_labels(labels, f'le="{_fmt_value(bound)}"')
                        lines.append(f"{family.name}_bucket{le} {cum}")
                    plain = _render_labels(labels)
                    lines.append(f"{family.name}_sum{plain} {_fmt_value(child.sum)}")
                    lines.append(f"{family.name}_count{plain} {child.count}")
                else:
                    plain = _render_labels(labels)
                    value = _fmt_value(child.value)  # type: ignore[union-attr]
                    lines.append(f"{family.name}{plain} {value}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # Snapshots (benchmark deltas)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Flat ``{"name{labels}": value}`` view for delta computation.

        Histograms contribute their ``_count`` and ``_sum`` series.
        """
        flat: dict[str, float] = {}
        for family in self.families():
            for child in family.children():
                key = family.name + _render_labels(child.label_values)
                if isinstance(child, Histogram):
                    flat[f"{key}:count"] = float(child.count)
                    flat[f"{key}:sum"] = child.sum
                else:
                    flat[key] = child.value  # type: ignore[union-attr]
        return flat


def diff_snapshots(
    before: Mapping[str, float], after: Mapping[str, float]
) -> dict[str, float]:
    """Per-series change between two :meth:`MetricsRegistry.snapshot` calls.

    Series that did not change are omitted; series new in ``after`` report
    their full value.

    >>> diff_snapshots({"a": 1.0}, {"a": 3.0, "b": 2.0})
    {'a': 2.0, 'b': 2.0}
    """
    delta: dict[str, float] = {}
    for key, value in after.items():
        change = value - before.get(key, 0.0)
        if change != 0.0:
            delta[key] = change
    return delta


_global_registry = MetricsRegistry()
_global_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-global registry the library instruments itself against."""
    return _global_registry


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh global registry (tests / benchmarks) and return it."""
    global _global_registry
    with _global_lock:
        _global_registry = MetricsRegistry()
        return _global_registry
