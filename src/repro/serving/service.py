"""Fault-tolerant ranking service with explicit degraded modes.

:class:`RankingService` answers score / top-k / percentile queries from
the latest healthy :class:`~repro.serving.snapshot.RankingSnapshot` while
a background updater re-solves the ranking as the web evolves.  Reads
never touch the solver: they only ever see a fully published snapshot,
so a crashed, diverging, or corrupted update can delay freshness but can
never produce a wrong or partial answer.

The serving state machine::

                      update succeeds (from any state)
      ┌─────────────────────────────────────────────────────┐
      │                                                     │
      ▼         failure          ≥ baseline_after       ≥ read_only_after
  [healthy] ────────────► [stale] ────────────► [baseline] ────────────► [read_only]
   serve SR               serve last            serve last               refuse new
   snapshot               SR snapshot           baseline                 updates; keep
                          (staleness            SourceRank               answering reads
                          grows)                snapshot

* **healthy** — the newest spam-resilient σ is served.
* **stale** — updates are failing; the last good SR snapshot keeps being
  served, with staleness (in updates and seconds) exported and stamped
  on every response.
* **baseline** — after ``baseline_after`` consecutive failures the
  service falls back to the last *baseline* SourceRank snapshot (the
  unthrottled ranking published at bootstrap): degraded relevance,
  honest provenance.
* **read_only** — after ``read_only_after`` consecutive failures (or
  when no baseline exists to fall back to) new update submissions are
  refused with :class:`~repro.errors.AdmissionError`; reads continue
  from whatever snapshot is adopted, and *already queued* updates still
  run — one clean success snaps the service straight back to healthy.

Failed updates are **dropped, not retried**: a poisoned request (e.g. a
graph that makes the solve diverge) would otherwise wedge the updater
forever.  Staleness grows until a later clean update lands.  The
:class:`~repro.serving.breaker.CircuitBreaker` additionally spaces out
solve attempts under persistent failure (exponential backoff, half-open
probes) so a broken environment isn't hammered.

Every transition is observable: the ``repro_serving_state`` gauge, the
``repro_serving_transitions_total{from_state,to_state}`` counter, and
per-response provenance (state, snapshot version/kind/age, staleness).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from ..config import (
    ObservabilityParams,
    RankingParams,
    ResilienceParams,
    ServingParams,
)
from ..errors import AdmissionError, ServingError, ThrottleError
from ..graph.pagegraph import PageGraph
from ..logging_utils import get_logger
from ..observability.endpoint import TelemetryServer
from ..observability.metrics import get_registry
from ..observability.tracing import Tracer, span
from ..ranking.incremental import IncrementalSourceRank
from ..ranking.sourcerank import sourcerank
from ..resilience.checkpoint import content_key
from ..resilience.fallback import FallbackChain
from ..sources.assignment import SourceAssignment
from ..sources.sourcegraph import SourceGraph
from ..throttle.vector import ThrottleVector
from .breaker import CircuitBreaker
from .snapshot import RankingSnapshot, SnapshotStore

__all__ = ["RankingService", "ServeResponse", "SERVING_STATES"]

_logger = get_logger(__name__)

#: Serving states, index = the ``repro_serving_state`` gauge value.
SERVING_STATES: tuple[str, ...] = ("healthy", "stale", "baseline", "read_only")

#: Buckets for read latencies — reads are in-memory lookups, so the
#: default seconds buckets would put every observation in the first one.
READ_LATENCY_BUCKETS: tuple[float, ...] = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 0.01, 0.05, 0.25, 1.0,
)


@dataclass(frozen=True, slots=True)
class ServeResponse:
    """One query answer plus full serving provenance.

    Attributes
    ----------
    value:
        The answer (a float for score/percentile, an ndarray of source
        ids for top-k).
    state:
        Serving state at answer time (one of :data:`SERVING_STATES`).
    snapshot_version, snapshot_kind:
        Which published snapshot produced the answer.
    snapshot_age:
        Seconds since that snapshot was published.
    staleness:
        Updates submitted but not yet applied (0 when fully caught up).
    """

    value: object
    state: str
    snapshot_version: int
    snapshot_kind: str
    snapshot_age: float
    staleness: int


@dataclass(slots=True)
class _UpdateRequest:
    seq: int
    graph: PageGraph
    assignment: SourceAssignment
    kappa: ThrottleVector | None
    solve_kwargs: dict = field(default_factory=dict)


def _labelled(name: str, help_text: str, labelnames: tuple[str, ...] = ()):
    if labelnames:
        return get_registry().counter(name, help_text, labelnames=labelnames)
    return get_registry().counter(name, help_text)


class RankingService:
    """Snapshot-backed ranking queries plus a guarded background updater.

    Parameters
    ----------
    store:
        A :class:`~repro.serving.snapshot.SnapshotStore` or a directory
        path for one.  On construction the service recovers the newest
        healthy snapshot from it (SR preferred, baseline as fallback) —
        restart safety comes entirely from the store.
    params:
        Ranking parameters for updates.  When the attached
        :class:`~repro.config.ResilienceParams` names fallback solvers, a
        :class:`~repro.resilience.fallback.FallbackChain` is wired in
        front of the solver exactly as the batch pipeline does — a
        NaN-corrupted power solve fails over to Jacobi *inside* the
        update, invisible to readers.  Defaults to the paper parameters
        with a ``power → jacobi`` chain.
    serving:
        Degradation thresholds, admission limits, and breaker timings
        (:class:`~repro.config.ServingParams`).
    weighting, full_throttle:
        Source-graph construction and κ = 1 semantics, as in
        :class:`~repro.ranking.incremental.IncrementalSourceRank`.
    breaker:
        Injectable :class:`~repro.serving.breaker.CircuitBreaker`
        (built from ``serving`` when omitted).
    clock:
        Wall-clock source for snapshot ages (injectable for tests).
    """

    def __init__(
        self,
        store: SnapshotStore | str | Path,
        params: RankingParams | None = None,
        serving: ServingParams | None = None,
        *,
        weighting: str = "consensus",
        full_throttle: str = "self",
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] = time.time,
        observability: ObservabilityParams | None = None,
    ) -> None:
        self.serving = serving or ServingParams()
        self.observability = observability or ObservabilityParams()
        if isinstance(store, (str, Path)):
            store = SnapshotStore(store, keep=self.serving.snapshot_keep)
        self.store = store
        if params is None:
            params = RankingParams(
                resilience=ResilienceParams(fallback_solvers=("jacobi",))
            )
        resilience = params.resilience
        if resilience is not None and resilience.fallback_solvers:
            chain = FallbackChain((params.solver, *resilience.fallback_solvers))
            params = params.with_(solver=chain.register())
        self.params = params
        self.weighting = weighting
        self.full_throttle = full_throttle
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=self.serving.failure_threshold,
            backoff_base_seconds=self.serving.backoff_base_seconds,
            backoff_max_seconds=self.serving.backoff_max_seconds,
            jitter=self.serving.backoff_jitter,
            seed=self.serving.seed,
        )
        self._clock = clock
        self._ranker = IncrementalSourceRank(
            params, weighting=weighting, full_throttle=full_throttle
        )
        self._lock = threading.RLock()
        # Serializes update *execution* (pop → solve → publish → adopt).
        # Reads only ever take ``_lock``; ``_run_lock`` is never acquired
        # while ``_lock`` is held, so the two cannot deadlock.
        self._run_lock = threading.Lock()
        self._queue: deque[_UpdateRequest] = deque()
        self._state = "healthy"
        self._current: RankingSnapshot | None = None
        self._last_sr: RankingSnapshot | None = None
        self._submitted_seq = 0
        self._applied_seq = 0
        self._consecutive_failures = 0
        self._thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        # --- telemetry: one tracer (spans, events, run id), live endpoint ---
        obs = self.observability
        self.tracer: Tracer | None = (
            Tracer(events_path=obs.events_path, profile=obs.profile)
            if obs.enabled
            else None
        )
        self._state_since = self._clock()
        self._read_seconds = get_registry().histogram(
            "repro_serving_read_seconds",
            "Read-path latency by operation",
            labelnames=("op",),
            buckets=READ_LATENCY_BUCKETS,
        )
        self.telemetry: TelemetryServer | None = None
        if obs.endpoint:
            self.telemetry = TelemetryServer(
                health_fn=self.health,
                tracer=self.tracer,
                host=obs.endpoint_host,
                port=obs.endpoint_port,
            ).start()
        self._recover()
        self._export_state()
        self._emit(
            "service_start",
            state=self._state,
            recovered_version=(
                None if self._current is None else self._current.version
            ),
            endpoint=(
                None
                if self.telemetry is None
                else "%s:%d" % self.telemetry.address
            ),
        )

    # ------------------------------------------------------------------
    # Recovery and bootstrap
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Adopt the newest healthy snapshot from the store, if any."""
        snapshot = self.store.latest(kind="sr")
        if snapshot is not None:
            self._last_sr = snapshot
            self._current = snapshot
            self._ranker.seed(snapshot.result())
            _logger.info("recovered SR snapshot %d from store", snapshot.version)
            return
        snapshot = self.store.latest(kind="baseline")
        if snapshot is not None:
            self._current = snapshot
            self._state = "baseline"
            _logger.warning(
                "no SR snapshot on disk; recovered baseline snapshot %d",
                snapshot.version,
            )

    def bootstrap(
        self,
        graph: PageGraph,
        assignment: SourceAssignment,
        kappa: ThrottleVector | None = None,
    ) -> RankingSnapshot:
        """Publish the initial baseline and SR snapshots for a web.

        The baseline (unthrottled SourceRank) snapshot is the
        degraded-mode fallback; the SR snapshot is what healthy serving
        answers from.  Returns the SR snapshot.

        Bootstrap takes the updater's run lock, so it cannot interleave
        with an in-flight background update: the SR snapshot it adopts
        is always newer than anything the updater published before it.
        """
        with self._run_lock, self._observed():
            self._emit(
                "bootstrap_start",
                pages=int(graph.n_nodes),
                sources=int(assignment.n_sources),
            )
            source_graph = SourceGraph.from_page_graph(
                graph, assignment, weighting=self.weighting
            )
            n = source_graph.n_sources
            base = sourcerank(source_graph, self.params)
            baseline = self.store.publish(
                kind="baseline",
                sigma=base.scores,
                kappa=np.zeros(n),
                key=self._input_key(graph, assignment, None),
                solver=self.params.solver,
                convergence=base.convergence,
            )
            self._emit(
                "snapshot_published",
                snapshot_kind="baseline",
                version=baseline.version,
            )
            result = self._ranker.update(graph, assignment, kappa)
            snapshot = self.store.publish(
                kind="sr",
                sigma=result.scores,
                kappa=np.zeros(n) if kappa is None else self._padded_kappa(kappa, n),
                key=self._input_key(graph, assignment, kappa),
                solver=self.params.solver,
                convergence=result.convergence,
            )
            self._emit(
                "snapshot_published", snapshot_kind="sr", version=snapshot.version
            )
            with self._lock:
                self._last_sr = snapshot
                self._current = snapshot
                self._consecutive_failures = 0
                self._set_state("healthy")
            self._emit("bootstrap_end", version=snapshot.version)
            return snapshot

    def _input_key(
        self,
        graph: PageGraph,
        assignment: SourceAssignment,
        kappa: ThrottleVector | None,
    ) -> str:
        return content_key(
            graph.indptr,
            graph.indices,
            np.int64(graph.n_nodes),
            assignment.page_to_source,
            None if kappa is None else kappa.kappa,
            self.weighting,
            self.full_throttle,
        )

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    def _emit(self, kind: str, **fields: object) -> None:
        """Land one event on this service's tracer (no-op without one).

        Goes straight to ``self.tracer`` rather than the ambient one so
        events from *caller* threads (submissions, queries) correlate
        under the service's ``run_id`` too — ambience only covers the
        threads the service itself activates.
        """
        if self.tracer is not None:
            self.tracer.emit(kind, **fields)

    def _observed(self) -> AbstractContextManager:
        """Make the service's tracer ambient for this thread.

        Context variables do not propagate into threads, so every thread
        that executes solves on the service's behalf — the background
        updater, or a caller running ``run_pending``/``bootstrap``
        directly — enters this context so the solver layer's
        ``solve_*``/``fallback``/``checkpoint_*`` events and spans land
        on the service's tracer.
        """
        return nullcontext() if self.tracer is None else self.tracer.activate()

    @property
    def run_id(self) -> str | None:
        """The correlation id stamped on this service's events, if any."""
        return None if self.tracer is None else self.tracer.run_id

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    def _set_state(self, state: str) -> None:
        """Transition (under the lock), exporting gauge and counter."""
        if state not in SERVING_STATES:
            raise ServingError(f"unknown serving state {state!r}")
        if state == self._state:
            return
        get_registry().counter(
            "repro_serving_transitions_total",
            "Serving state transitions",
            labelnames=("from_state", "to_state"),
        ).labels(from_state=self._state, to_state=state).inc()
        now = self._clock()
        get_registry().counter(
            "repro_serving_state_seconds_total",
            "Cumulative seconds spent in each serving state",
            labelnames=("state",),
        ).labels(state=self._state).inc(max(now - self._state_since, 0.0))
        self._state_since = now
        _logger.info("serving state: %s -> %s", self._state, state)
        self._emit("state_transition", from_state=self._state, to_state=state)
        self._state = state
        self._export_state()

    def _export_state(self) -> None:
        registry = get_registry()
        registry.gauge(
            "repro_serving_state",
            "Serving state (0=healthy, 1=stale, 2=baseline, 3=read_only)",
        ).set(SERVING_STATES.index(self._state))
        registry.gauge(
            "repro_serving_ready",
            "1 when a healthy snapshot is adopted and reads can be answered",
        ).set(1.0 if self._current is not None else 0.0)
        registry.gauge(
            "repro_serving_staleness_updates",
            "Updates submitted but not yet applied",
        ).set(float(self._submitted_seq - self._applied_seq))
        registry.gauge(
            "repro_serving_queue_depth",
            "Pending update requests",
        ).set(float(len(self._queue)))

    def _degrade(self, baseline: RankingSnapshot | None) -> None:
        """Apply the failure-count thresholds after a failed update.

        ``baseline`` is the fallback snapshot, looked up by the caller
        *before* taking the service lock — a store walk (disk reads plus
        digest verification) must never stall concurrent readers.
        """
        failures = self._consecutive_failures
        if failures >= self.serving.read_only_after:
            self._set_state("read_only")
        elif failures >= self.serving.baseline_after:
            if baseline is not None:
                self._current = baseline
                self._set_state("baseline")
            else:
                # Nothing safer to fall back to: stop accepting work.
                self._set_state("read_only")
        else:
            self._set_state("stale")

    # ------------------------------------------------------------------
    # Admission and updates
    # ------------------------------------------------------------------
    def submit_update(
        self,
        graph: PageGraph,
        assignment: SourceAssignment,
        kappa: ThrottleVector | None = None,
        **solve_kwargs: object,
    ) -> int:
        """Queue an update; returns its sequence number.

        Raises
        ------
        AdmissionError
            ``reason="read_only"`` when the service has degraded past
            accepting writes; ``reason="queue_full"`` when
            ``ServingParams.max_pending`` requests are already waiting
            (backpressure — the caller should retry later).
        """
        with self._lock:
            if self._state == "read_only":
                self._reject("read_only")
                self._emit("admission_rejected", reason="read_only")
                raise AdmissionError(
                    "read_only",
                    "service is read-only after repeated update failures; "
                    "reads continue from the adopted snapshot",
                )
            if len(self._queue) >= self.serving.max_pending:
                self._reject("queue_full")
                self._emit("admission_rejected", reason="queue_full")
                raise AdmissionError(
                    "queue_full",
                    f"update queue is full ({self.serving.max_pending} "
                    "pending); retry after the updater drains",
                )
            self._submitted_seq += 1
            request = _UpdateRequest(
                seq=self._submitted_seq,
                graph=graph,
                assignment=assignment,
                kappa=kappa,
                solve_kwargs=dict(solve_kwargs),
            )
            self._queue.append(request)
            self._export_state()
            self._emit(
                "update_submitted",
                seq=request.seq,
                queue_depth=len(self._queue),
            )
            return request.seq

    @staticmethod
    def _reject(reason: str) -> None:
        get_registry().counter(
            "repro_serving_admission_rejections_total",
            "Update submissions refused, by reason",
            labelnames=("reason",),
        ).labels(reason=reason).inc()

    def pending(self) -> int:
        """Queued updates not yet attempted."""
        with self._lock:
            return len(self._queue)

    def run_pending(self, max_updates: int | None = None) -> int:
        """Run queued updates synchronously; returns how many were applied.

        Each request is popped, solved *outside* the service lock (reads
        proceed concurrently), and on success published + adopted.  A
        failed solve — or a failed snapshot publish — drops the request,
        records the failure with the breaker, and advances the
        degradation state machine.  When the breaker is open the queue
        is left untouched until the backoff deadline passes.

        Execution is serialized across callers: the background loop and
        any direct ``run_pending`` calls take turns under a single run
        lock, so requests are always solved, published, and adopted in
        submission order — a slow older solve can never overwrite a
        newer snapshot as "current".
        """
        applied = 0
        with self._observed():
            while max_updates is None or applied < max_updates:
                with self._run_lock:
                    with self._lock:
                        if not self._queue:
                            break
                        if not self.breaker.allow():
                            break
                        request = self._queue.popleft()
                        self._export_state()
                    ok = self._run_one(request)
                if ok:
                    applied += 1
        return applied

    def _run_one(self, request: _UpdateRequest) -> bool:
        updates = _labelled(
            "repro_serving_updates_total",
            "Background update attempts, by outcome",
            ("status",),
        )
        self._emit("update_start", seq=request.seq)
        try:
            with span("update", seq=request.seq):
                result = self._ranker.update(
                    request.graph,
                    request.assignment,
                    request.kappa,
                    **request.solve_kwargs,
                )
            kappa = request.kappa
            n = result.n
            snapshot = self.store.publish(
                kind="sr",
                sigma=result.scores,
                kappa=(
                    np.zeros(n) if kappa is None else self._padded_kappa(kappa, n)
                ),
                key=self._input_key(request.graph, request.assignment, kappa),
                solver=self.params.solver,
                convergence=result.convergence,
            )
            self._emit(
                "snapshot_published", snapshot_kind="sr", version=snapshot.version
            )
        except Exception as exc:  # noqa: BLE001 - solve OR publish failure
            # The publish sits inside this try on purpose: a disk-full or
            # torn-write error must run the exact same failure path as a
            # diverging solve — count it, tell the breaker (a half-open
            # probe would otherwise wedge half-open forever), degrade.
            updates.labels(status="failed").inc()
            self.breaker.record_failure()
            failures = self._consecutive_failures + 1
            baseline = None
            if self.serving.baseline_after <= failures < self.serving.read_only_after:
                # Store walk outside the service lock: reads proceed.
                baseline = self.store.latest(kind="baseline")
            with self._lock:
                self._consecutive_failures += 1
                self._degrade(baseline)
            self._emit(
                "update_failed",
                seq=request.seq,
                error=type(exc).__name__,
                detail=str(exc),
                consecutive_failures=failures,
            )
            _logger.warning(
                "update %d failed and was dropped (%s: %s)",
                request.seq,
                type(exc).__name__,
                exc,
            )
            return False
        updates.labels(status="ok").inc()
        self.breaker.record_success()
        with self._lock:
            if request.seq >= self._applied_seq:
                self._last_sr = snapshot
                self._current = snapshot
                self._applied_seq = request.seq
            self._consecutive_failures = 0
            self._set_state("healthy")
            self._export_state()
        self._emit(
            "update_applied", seq=request.seq, version=snapshot.version
        )
        return True

    @staticmethod
    def _padded_kappa(kappa: ThrottleVector, n: int) -> np.ndarray:
        if kappa.n > n:
            # Mirrors IncrementalSourceRank.update: a κ assigned on a larger
            # web must never be published alongside a shorter σ — the extra
            # entries would silently shift meaning on the next re-assignment.
            raise ThrottleError(
                f"throttle vector covers {kappa.n} sources but the source "
                f"graph has only {n}; a κ assigned on a larger web cannot "
                "be applied to a smaller one — recompute κ for this web"
            )
        if kappa.n == n:
            return kappa.kappa
        padded = np.zeros(n)
        padded[: kappa.n] = kappa.kappa
        return padded

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _snapshot_for_read(self) -> tuple[RankingSnapshot, str, int]:
        with self._lock:
            snapshot = self._current
            state = self._state
            staleness = self._submitted_seq - self._applied_seq
        if snapshot is None:
            raise ServingError(
                "no snapshot available; bootstrap the service or point it "
                "at a store holding at least one healthy snapshot"
            )
        return snapshot, state, staleness

    def _read(
        self, op: str, fn: Callable[[RankingSnapshot], object]
    ) -> ServeResponse:
        """Answer one read, funnelling *every* failure — missing snapshot,
        out-of-range id, anything ``fn`` raises — through a single
        accounting path so ``repro_serving_reads_total{status="error"}``
        and the latency histogram never under-count.
        """
        started = time.perf_counter()
        try:
            snapshot, state, staleness = self._snapshot_for_read()
            value = fn(snapshot)
        except Exception as exc:
            _labelled(
                "repro_serving_reads_total",
                "Queries answered, by outcome",
                ("status",),
            ).labels(status="error").inc()
            self._read_seconds.labels(op=op).observe(
                time.perf_counter() - started
            )
            self._emit("read_failed", op=op, error=type(exc).__name__)
            raise
        return self._respond(
            snapshot, state, staleness, value, op=op, started=started
        )

    def _respond(
        self,
        snapshot: RankingSnapshot,
        state: str,
        staleness: int,
        value: object,
        *,
        op: str = "read",
        started: float | None = None,
    ) -> ServeResponse:
        age = snapshot.age(self._clock())
        registry = get_registry()
        registry.gauge(
            "repro_serving_snapshot_age_seconds",
            "Age of the snapshot answering reads",
        ).set(age)
        _labelled(
            "repro_serving_reads_total",
            "Queries answered, by outcome",
            ("status",),
        ).labels(status="ok").inc()
        if started is not None:
            self._read_seconds.labels(op=op).observe(
                time.perf_counter() - started
            )
        return ServeResponse(
            value=value,
            state=state,
            snapshot_version=snapshot.version,
            snapshot_kind=snapshot.kind,
            snapshot_age=age,
            staleness=staleness,
        )

    def score(self, source: int) -> ServeResponse:
        """The served σ value of one source."""
        return self._read("score", lambda s: s.result().score_of(source))

    def top_k(self, k: int) -> ServeResponse:
        """Ids of the ``k`` best-ranked sources, best first."""
        return self._read("top_k", lambda s: s.result().top(k))

    def percentile(self, source: int) -> ServeResponse:
        """The served ranking percentile (100 = best) of one source."""
        return self._read(
            "percentile", lambda s: s.result().percentile_of(source)
        )

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """Readiness: can reads be answered at all?"""
        with self._lock:
            return self._current is not None

    def health(self) -> dict:
        """Structured health probe (JSON-ready).

        Besides the degradation-ladder detail, reports the service's
        correlation ``run_id``, how long it has sat in the current state,
        and bucket-interpolated p50/p99 read latencies per operation —
        the numbers an SLO dashboard scrapes from ``/health``.
        """
        with self._lock:
            snapshot = self._current
            payload = {
                "state": self._state,
                "ready": snapshot is not None,
                "snapshot_version": None if snapshot is None else snapshot.version,
                "snapshot_kind": None if snapshot is None else snapshot.kind,
                "snapshot_age_seconds": (
                    None if snapshot is None else snapshot.age(self._clock())
                ),
                "staleness_updates": self._submitted_seq - self._applied_seq,
                "queue_depth": len(self._queue),
                "consecutive_failures": self._consecutive_failures,
                "breaker_state": self.breaker.state,
                "breaker_retry_after_seconds": self.breaker.retry_after(),
                "state_seconds": max(self._clock() - self._state_since, 0.0),
                "run_id": self.run_id,
            }
        latency: dict[str, dict[str, float | int | None]] = {}
        for child in self._read_seconds.children():
            if not child.count:
                continue
            latency[child.label_values.get("op", "read")] = {
                "count": child.count,
                "p50_seconds": child.quantile(0.5),
                "p99_seconds": child.quantile(0.99),
            }
        payload["read_latency"] = latency
        return payload

    # ------------------------------------------------------------------
    # Background updater
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background updater thread (idempotent).

        Also (re)starts the telemetry endpoint if one is configured —
        after a ``stop()``/``start()`` cycle the endpoint may come back
        on a different port when ``endpoint_port=0``.
        """
        if self.telemetry is not None:
            self.telemetry.start()
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return
            self._stop_event.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-serving-updater", daemon=True
            )
            self._thread.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the background updater thread and join it.

        The telemetry endpoint is shut down too; the tracer's spans and
        events stay readable after stop.
        """
        with self._lock:
            thread = self._thread
            self._thread = None
        self._stop_event.set()
        if thread is not None:
            thread.join(timeout=timeout)
        if self.telemetry is not None:
            self.telemetry.stop()
        self._emit("service_stop", state=self._state)

    def _loop(self) -> None:
        # run_pending re-activates the service's tracer inside this
        # thread (context variables do not cross thread boundaries), so
        # updater telemetry correlates with the service run_id.
        while not self._stop_event.is_set():
            try:
                applied = self.run_pending()
            except Exception:  # noqa: BLE001 - updater must never die
                _logger.exception("updater loop iteration failed")
                applied = 0
            if applied == 0:
                self._stop_event.wait(self.serving.poll_interval_seconds)

    def __enter__(self) -> "RankingService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
