"""Typed, validated parameter objects shared across the library.

The paper fixes a small set of numeric knobs (mixing parameter ``alpha``,
L2 convergence threshold ``1e-9``, throttle top-k fraction, seed fraction).
These are collected here as frozen dataclasses so that experiments can be
described declaratively and reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Literal

from .errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .resilience.checkpoint import SolveCheckpointer

__all__ = [
    "AuditParams",
    "ChaosParams",
    "FleetParams",
    "GraphStoreParams",
    "ObservabilityParams",
    "RankingParams",
    "ResilienceParams",
    "SLOParams",
    "ServingParams",
    "ThrottleParams",
    "SpamProximityParams",
    "ExperimentParams",
    "DEFAULT_ALPHA",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ITER",
]

#: Mixing (damping) parameter used throughout the paper (Section 6.1).
DEFAULT_ALPHA: float = 0.85

#: L2 distance threshold between successive power iterates (Section 6.1).
DEFAULT_TOLERANCE: float = 1e-9

#: Generous iteration cap; the paper's graphs converge in well under 200.
DEFAULT_MAX_ITER: int = 1000


def _check_unit_interval(name: str, value: float, *, open_right: bool = False) -> float:
    value = float(value)
    if not (0.0 <= value <= 1.0) or (open_right and value == 1.0):
        hi = "1)" if open_right else "1]"
        raise ConfigError(f"{name} must lie in [0, {hi}, got {value!r}")
    return value


def _check_positive(name: str, value: float) -> float:
    value = float(value)
    if not value > 0.0:
        raise ConfigError(f"{name} must be positive, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class AuditParams:
    """Runtime correctness-audit policy for the ranking stack.

    Attached to :attr:`RankingParams.audit` (and
    :attr:`SpamProximityParams.audit`); when present, the pipeline checks
    the paper's structural invariants around every stage — ``T'``/``T''``
    row-stochasticity, ``T''_ii = κ_i`` on boosted rows, σ a finite
    non-negative distribution — and the shared iteration engine checks
    per-iteration mass conservation of the power iterate.  Violations are
    counted in ``repro_audit_violations_total`` and, in strict mode,
    raised as a typed :class:`~repro.errors.AuditError`.

    Parameters
    ----------
    strict:
        If True (default) any violation raises
        :class:`~repro.errors.AuditError`; if False violations are only
        logged and counted.
    atol:
        Absolute tolerance for the numerical invariants (row sums,
        diagonal equality, iterate mass, σ mass).
    check_every:
        Interval of the per-iteration mass-conservation check inside
        :func:`repro.linalg.iterate.iterate_to_fixpoint` (``1`` = every
        iteration; ``0`` disables the per-iteration check, leaving only
        the stage-boundary checks).
    check_transition:
        Audit the transition matrices (``T'`` row-stochastic, throttled
        diagonal/row invariants of ``T''``).
    check_scores:
        Audit the ranking outputs (σ finite, non-negative, sums to 1).
    """

    strict: bool = True
    atol: float = 1e-8
    check_every: int = 1
    check_transition: bool = True
    check_scores: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "strict", bool(self.strict))
        _check_positive("atol", self.atol)
        object.__setattr__(self, "atol", float(self.atol))
        every = int(self.check_every)
        if every < 0:
            raise ConfigError(f"check_every must be >= 0, got {every!r}")
        object.__setattr__(self, "check_every", every)
        object.__setattr__(self, "check_transition", bool(self.check_transition))
        object.__setattr__(self, "check_scores", bool(self.check_scores))

    def with_(self, **overrides: object) -> "AuditParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class ObservabilityParams:
    """Runtime-telemetry policy: event file, profiling, scrape endpoint.

    Accepted by :class:`~repro.core.pipeline.SpamResilientPipeline` and
    :class:`~repro.serving.RankingService`.  Everything defaults off.  A
    host keeps one :class:`~repro.observability.Tracer` (spans, events,
    run id; see :mod:`repro.observability.tracing`) when any switch is
    set, and none otherwise.

    Parameters
    ----------
    events_path:
        Append the tracer's events to this JSON-lines file as they happen.
    profile:
        Record wall/CPU seconds on every span, a cProfile table on the
        outermost span per thread, and per-iteration step timings on
        solve spans.
    endpoint:
        Start the live telemetry scrape endpoint (``/metrics``,
        ``/health``, ``/trace``, ``/events``; see
        :mod:`repro.observability.endpoint`).
    endpoint_host, endpoint_port:
        Bind address of the endpoint; port ``0`` picks a free port.
    """

    events_path: "str | None" = None
    profile: bool = False
    endpoint: bool = False
    endpoint_host: str = "127.0.0.1"
    endpoint_port: int = 0

    def __post_init__(self) -> None:
        if self.events_path is not None:
            object.__setattr__(self, "events_path", str(self.events_path))
        object.__setattr__(self, "profile", bool(self.profile))
        object.__setattr__(self, "endpoint", bool(self.endpoint))
        port = int(self.endpoint_port)
        if not 0 <= port <= 65535:
            raise ConfigError(f"endpoint_port must lie in [0, 65535], got {port!r}")
        object.__setattr__(self, "endpoint_port", port)
        object.__setattr__(self, "endpoint_host", str(self.endpoint_host))

    @property
    def enabled(self) -> bool:
        """Whether any switch is set (the host then keeps a tracer)."""
        return self.events_path is not None or self.profile or self.endpoint

    def with_(self, **overrides: object) -> "ObservabilityParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class ResilienceParams:
    """Numerical guardrails and recovery policy for iterative solves.

    Attached to :attr:`RankingParams.resilience`; when present
    :func:`repro.linalg.iterate.iterate_to_fixpoint` checks every
    iteration against these rules and raises the typed
    :class:`~repro.errors.ConvergenceError` subclasses on violation —
    which a :class:`~repro.resilience.FallbackChain` can then catch to
    warm-start the next solver in line.

    A non-finite residual always trips the guard: a NaN or Inf anywhere
    in an iterate makes its difference from the previous one non-finite
    under every norm, so no separate scan of the iterate is needed.

    Parameters
    ----------
    divergence_window:
        Raise :class:`~repro.errors.DivergenceError` after this many
        *consecutive* iterations of residual growth (``0`` disables).
    stagnation_window:
        Raise :class:`~repro.errors.StagnationError` when, over a window
        of this many iterations, the residual improves by less than
        ``stagnation_rtol`` (relative) while still above tolerance
        (``0`` disables — the default, since slow-but-steady convergence
        is legitimate for ill-conditioned webs).
    stagnation_rtol:
        Minimum relative residual improvement per stagnation window.
    deadline_seconds:
        Wall-clock budget for one solve; exceeded ⇒
        :class:`~repro.errors.SolveDeadlineError` (``None`` disables).
    fallback_solvers:
        Solver names (in order) a fallback chain should try after the
        primary solver; each is validated against the solver registry.
    checkpoint_every:
        Iteration interval for solve checkpoints when a checkpointer is
        installed (``0`` keeps the checkpointer's own default).
    """

    divergence_window: int = 10
    stagnation_window: int = 0
    stagnation_rtol: float = 1e-3
    deadline_seconds: float | None = None
    fallback_solvers: tuple[str, ...] = ()
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        for name in ("divergence_window", "stagnation_window", "checkpoint_every"):
            value = int(getattr(self, name))
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        _check_unit_interval("stagnation_rtol", self.stagnation_rtol)
        if self.deadline_seconds is not None:
            _check_positive("deadline_seconds", self.deadline_seconds)
            object.__setattr__(self, "deadline_seconds", float(self.deadline_seconds))
        object.__setattr__(
            self, "fallback_solvers", tuple(str(s) for s in self.fallback_solvers)
        )
        if self.fallback_solvers:
            from .linalg.registry import solver_registry

            for solver in self.fallback_solvers:
                solver_registry.validate(solver)

    def with_(self, **overrides: object) -> "ResilienceParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class ServingParams:
    """Policy knobs of the fault-tolerant :class:`~repro.serving.RankingService`.

    Parameters
    ----------
    max_pending:
        Bounded-queue admission control: update requests beyond this many
        outstanding are refused with
        :class:`~repro.errors.AdmissionError` (reason ``"queue_full"``).
    failure_threshold:
        Consecutive update failures after which the circuit breaker
        opens and background re-solves pause for the backoff window.
    backoff_base_seconds, backoff_max_seconds:
        Exponential-backoff schedule of the open breaker: the n-th trip
        waits ``min(base * 2**(n-1), max)`` seconds (plus jitter) before
        a half-open probe is allowed through.
    backoff_jitter:
        Relative jitter added to each backoff (``0.1`` = up to +10 %),
        drawn from a seeded rng so schedules stay reproducible.
    baseline_after:
        Consecutive update failures after which serving falls back from
        the stale SR snapshot to the last baseline-SourceRank snapshot.
    read_only_after:
        Consecutive update failures after which the service refuses new
        writes entirely (reads keep being answered).  Must be at least
        ``baseline_after``.
    staleness_bound_updates:
        How many update generations behind the served snapshot may lag
        before the readiness probe reports the bound as violated (the
        soak harness gates on this).
    snapshot_keep:
        How many snapshots the store retains per published kind.
    poll_interval_seconds:
        Idle sleep of the background updater loop between queue polls.
    seed:
        Seed of the breaker's jitter rng.
    """

    max_pending: int = 16
    failure_threshold: int = 3
    backoff_base_seconds: float = 0.5
    backoff_max_seconds: float = 30.0
    backoff_jitter: float = 0.1
    baseline_after: int = 2
    read_only_after: int = 4
    staleness_bound_updates: int = 8
    snapshot_keep: int = 8
    poll_interval_seconds: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_pending", "failure_threshold", "baseline_after",
                     "read_only_after", "staleness_bound_updates",
                     "snapshot_keep"):
            value = int(getattr(self, name))
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
            object.__setattr__(self, name, value)
        if self.read_only_after < self.baseline_after:
            raise ConfigError(
                f"read_only_after ({self.read_only_after}) must be >= "
                f"baseline_after ({self.baseline_after}): the service "
                "falls back to baseline before refusing writes"
            )
        _check_positive("backoff_base_seconds", self.backoff_base_seconds)
        _check_positive("backoff_max_seconds", self.backoff_max_seconds)
        _check_positive("poll_interval_seconds", self.poll_interval_seconds)
        for name in ("backoff_base_seconds", "backoff_max_seconds",
                     "poll_interval_seconds"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _check_unit_interval("backoff_jitter", self.backoff_jitter)
        object.__setattr__(self, "backoff_jitter", float(self.backoff_jitter))
        object.__setattr__(self, "seed", int(self.seed))

    def with_(self, **overrides: object) -> "ServingParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class FleetParams:
    """Topology and protocol knobs of the replicated serving fleet.

    Consumed by :class:`~repro.serving.ServingFleet` (one publisher
    process plus N read replicas behind an asyncio front door); see
    ``docs/architecture.md`` ("Replicated serving fleet").

    Parameters
    ----------
    replicas:
        Number of read-only replica processes to spawn.
    host:
        Interface every fleet socket binds (replicas and front door).
    frontend_port:
        Port of the front door's listener; ``0`` picks a free port.
    replica_poll_seconds:
        How often each replica polls the snapshot store for a newer
        version to adopt.
    batch_max_ids:
        Micro-batching: singleton ``score``/``percentile`` reads arriving
        within one linger window coalesce into a single backend request
        of at most this many ids.
    batch_linger_seconds:
        How long the front door holds an open micro-batch waiting for
        more singleton reads before flushing it.
    connect_timeout_seconds, request_timeout_seconds:
        Transport deadlines; a replica that misses one is evicted from
        rotation and the read is retried on another replica.
    probe_interval_seconds:
        How often the front door probes evicted replicas for
        reinstatement.
    max_retries:
        Distinct replicas a single read may be attempted on before the
        front door reports it failed.
    spawn_timeout_seconds:
        How long to wait for a freshly spawned replica to bind its
        socket and adopt a first snapshot before giving up.
    ready_requires_snapshot:
        Whether replica readiness additionally demands an adopted
        snapshot (on by default; the bench and CLI rely on it).
    """

    replicas: int = 3
    host: str = "127.0.0.1"
    frontend_port: int = 0
    replica_poll_seconds: float = 0.05
    batch_max_ids: int = 512
    batch_linger_seconds: float = 0.002
    connect_timeout_seconds: float = 5.0
    request_timeout_seconds: float = 10.0
    probe_interval_seconds: float = 0.25
    max_retries: int = 3
    spawn_timeout_seconds: float = 120.0
    ready_requires_snapshot: bool = True

    def __post_init__(self) -> None:
        for name in ("replicas", "batch_max_ids", "max_retries"):
            value = int(getattr(self, name))
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
            object.__setattr__(self, name, value)
        port = int(self.frontend_port)
        if not 0 <= port <= 65535:
            raise ConfigError(f"frontend_port must lie in [0, 65535], got {port!r}")
        object.__setattr__(self, "frontend_port", port)
        if not str(self.host):
            raise ConfigError("host must be non-empty")
        for name in ("replica_poll_seconds", "connect_timeout_seconds",
                     "request_timeout_seconds", "probe_interval_seconds",
                     "spawn_timeout_seconds"):
            _check_positive(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        linger = float(self.batch_linger_seconds)
        if linger < 0.0:
            raise ConfigError(
                f"batch_linger_seconds must be >= 0, got {linger!r}"
            )
        object.__setattr__(self, "batch_linger_seconds", linger)
        object.__setattr__(
            self, "ready_requires_snapshot", bool(self.ready_requires_snapshot)
        )

    def with_(self, **overrides: object) -> "FleetParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class SLOParams:
    """Per-operation SLO budgets enforced by the fleet front door.

    Consumed by :class:`~repro.serving.frontend.FrontDoor`; see
    ``docs/architecture.md`` ("SLO guardrails & chaos testing").

    Parameters
    ----------
    deadline_seconds:
        Default per-request deadline budget.  A read that cannot be
        answered inside its budget is refused with a typed
        ``DeadlineExceededError`` response instead of hanging the
        caller; its burn ratio (elapsed / budget) is recorded in the
        ``repro_fleet_deadline_burn_ratio`` histogram either way.
    score_deadline_seconds, percentile_deadline_seconds,
    top_k_deadline_seconds:
        Optional per-op overrides of ``deadline_seconds``.
    hedge_threshold_seconds:
        Floor of the hedge trigger: a backup request fires on a second
        replica once the first attempt has been outstanding longer than
        ``max(hedge_threshold_seconds, tracked p-``hedge_quantile``
        attempt latency)``.  First response wins; the losing leg drains
        in the background (its latency still feeds the outlier
        detector and its response is consumed, keeping the per-replica
        protocol in sync).
    hedge_quantile:
        Which attempt-latency quantile arms the hedge trigger once
        ``hedge_min_samples`` attempts have been observed.
    hedge_min_samples:
        Attempts to observe before the quantile estimate participates
        (before that, only the threshold floor applies).
    retry_budget_per_second, retry_budget_burst:
        Token bucket bounding retries *and* hedges: each re-attempt
        takes one token; an empty bucket means fail fast instead of
        amplifying an outage into a retry storm.
    max_inflight:
        Admission control at the door: reads beyond this many in flight
        are shed with an ``AdmissionError``-typed response carrying
        ``retry_after`` = ``shed_retry_after_seconds``.
    shed_retry_after_seconds:
        The retry-after hint stamped on shed responses.
    eject_latency_seconds:
        Latency-outlier ejection: a replica whose windowed p95 attempt
        latency exceeds this is quarantined as SLOW (still alive, too
        slow to serve) until a probe answers fast again.
    eject_min_samples, eject_window:
        How many recent attempts the per-replica latency window holds
        and how many must be present before ejection can trigger.
    reinstate_backoff_seconds, reinstate_backoff_max_seconds:
        Flap damping: an ejected/quarantined replica is not reinstated
        before ``floor * 2**(flaps-1)`` seconds (capped at the max)
        have passed, no matter how quickly its probes recover.
    """

    deadline_seconds: float = 30.0
    score_deadline_seconds: float | None = None
    percentile_deadline_seconds: float | None = None
    top_k_deadline_seconds: float | None = None
    hedge_threshold_seconds: float = 0.05
    hedge_quantile: float = 0.95
    hedge_min_samples: int = 50
    retry_budget_per_second: float = 20.0
    retry_budget_burst: float = 40.0
    max_inflight: int = 1024
    shed_retry_after_seconds: float = 0.25
    eject_latency_seconds: float = 1.0
    eject_min_samples: int = 32
    eject_window: int = 64
    reinstate_backoff_seconds: float = 0.5
    reinstate_backoff_max_seconds: float = 30.0

    def __post_init__(self) -> None:
        for name in ("deadline_seconds", "hedge_threshold_seconds",
                     "retry_budget_per_second", "retry_budget_burst",
                     "shed_retry_after_seconds", "eject_latency_seconds",
                     "reinstate_backoff_seconds",
                     "reinstate_backoff_max_seconds"):
            _check_positive(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("score_deadline_seconds", "percentile_deadline_seconds",
                     "top_k_deadline_seconds"):
            value = getattr(self, name)
            if value is not None:
                _check_positive(name, value)
                object.__setattr__(self, name, float(value))
        quantile = float(self.hedge_quantile)
        if not 0.0 < quantile < 1.0:
            raise ConfigError(
                f"hedge_quantile must lie in (0, 1), got {quantile!r}"
            )
        object.__setattr__(self, "hedge_quantile", quantile)
        for name in ("hedge_min_samples", "max_inflight",
                     "eject_min_samples", "eject_window"):
            value = int(getattr(self, name))
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value!r}")
            object.__setattr__(self, name, value)
        if self.eject_window < self.eject_min_samples:
            raise ConfigError(
                f"eject_window ({self.eject_window}) must be >= "
                f"eject_min_samples ({self.eject_min_samples})"
            )
        if self.reinstate_backoff_max_seconds < self.reinstate_backoff_seconds:
            raise ConfigError(
                f"reinstate_backoff_max_seconds "
                f"({self.reinstate_backoff_max_seconds}) must be >= "
                f"reinstate_backoff_seconds "
                f"({self.reinstate_backoff_seconds})"
            )

    def deadline_for(self, op: str) -> float:
        """The deadline budget (seconds) of one operation."""
        override = getattr(self, f"{op}_deadline_seconds", None)
        return self.deadline_seconds if override is None else override

    def with_(self, **overrides: object) -> "SLOParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class ChaosParams:
    """Numeric knobs of one injected fault rule (CLI / schedule facing).

    The :class:`~repro.resilience.faults.FaultPlan` consumes validated
    instances of this (via
    :meth:`~repro.resilience.faults.FaultRule.from_params`); the
    ``repro serve --chaos`` presets and the ``bench_chaos.py`` schedule
    both build their rules through it so malformed schedules fail with
    a :class:`~repro.errors.ConfigError` naming the bad field instead
    of corrupting a run.

    Parameters
    ----------
    latency_seconds, jitter_seconds:
        Added response latency: fixed part plus a seeded uniform jitter.
    stall_seconds:
        Mid-frame stall — the response is cut in two and the second
        half held back this long (a dribbling, not dead, socket).
    reset_probability:
        Per-response chance of a connection reset mid-response.
    torn_probability:
        Per-response chance of a torn frame (a truncated line followed
        by a clean close).
    adoption_delay_seconds:
        Snapshot-store read delay (slow adoption at the replicas).
    cut_fraction:
        How much of the frame is written before a reset/tear cuts it.
    seed:
        Seed of the rule's fault rng (identical seeds fire identically).
    """

    latency_seconds: float = 0.0
    jitter_seconds: float = 0.0
    stall_seconds: float = 0.0
    reset_probability: float = 0.0
    torn_probability: float = 0.0
    adoption_delay_seconds: float = 0.0
    cut_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("latency_seconds", "jitter_seconds", "stall_seconds",
                     "adoption_delay_seconds"):
            value = float(getattr(self, name))
            if value < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("reset_probability", "torn_probability"):
            _check_unit_interval(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        cut = float(self.cut_fraction)
        if not 0.0 < cut <= 1.0:
            raise ConfigError(
                f"cut_fraction must lie in (0, 1], got {cut!r}"
            )
        object.__setattr__(self, "cut_fraction", cut)
        object.__setattr__(self, "seed", int(self.seed))

    def with_(self, **overrides: object) -> "ChaosParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class GraphStoreParams:
    """Policy of the sharded on-disk graph substrate.

    Accepted by :func:`repro.core.pipeline.operator_from_store` (and the
    ``repro rank --graph-store`` CLI path) to control how a
    :class:`~repro.webgraph.store.ShardedGraphStore` is turned into a
    :class:`~repro.linalg.BlockedOperator`.  Store writers take their
    ``block_size`` directly.

    Parameters
    ----------
    cache_blocks:
        Bound on decoded blocks held in memory by the blocked operator.
        The out-of-core memory guarantee is O(cache_blocks · block +
        iterate).
    """

    cache_blocks: int = 4

    def __post_init__(self) -> None:
        value = int(self.cache_blocks)
        if value < 1:
            raise ConfigError(f"cache_blocks must be >= 1, got {value!r}")
        object.__setattr__(self, "cache_blocks", value)

    def with_(self, **overrides: object) -> "GraphStoreParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class RankingParams:
    """Parameters of a teleporting random-walk ranking computation.

    Parameters
    ----------
    alpha:
        Mixing parameter: probability of following an edge rather than
        teleporting.  The paper uses ``0.85``.
    tolerance:
        Stopping threshold on the norm of successive iterate differences.
    max_iter:
        Hard cap on iterations; exceeding it raises
        :class:`repro.errors.ConvergenceError` unless ``strict`` is False.
    norm:
        Which vector norm the stopping rule uses.  The paper measures the
        L2 distance of successive Power Method iterates.
    strict:
        If True (default) a non-converged computation raises; if False it
        returns the last iterate flagged ``converged=False``.
    solver:
        Which registered solver runs the computation (``"power"`` — the
        paper's choice — ``"jacobi"``, ``"gauss_seidel"``, or any name
        added via :func:`repro.linalg.register_solver`).  Validated
        against the registry at construction.
    resilience:
        Optional :class:`ResilienceParams` enabling per-iteration
        numerical guardrails (NaN/Inf, divergence, stagnation, deadline)
        in the shared iteration engine.  ``None`` (default) keeps the
        hot loop guard-free.
    audit:
        Optional :class:`AuditParams` enabling the runtime correctness
        audit: stage-boundary invariant checks in the pipeline and
        per-iteration mass-conservation checks in the iteration engine.
        ``None`` (default) keeps every path audit-free.
    checkpoint:
        Optional :class:`repro.resilience.SolveCheckpointer` persisting
        periodic solve checkpoints (and resuming from them).  Excluded
        from equality/hash so two parameter sets describing the same
        computation stay equal.
    """

    alpha: float = DEFAULT_ALPHA
    tolerance: float = DEFAULT_TOLERANCE
    max_iter: int = DEFAULT_MAX_ITER
    norm: Literal["l1", "l2", "linf"] = "l2"
    strict: bool = True
    solver: str = "power"
    resilience: "ResilienceParams | None" = None
    audit: "AuditParams | None" = None
    checkpoint: "SolveCheckpointer | None" = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        _check_unit_interval("alpha", self.alpha, open_right=True)
        _check_positive("tolerance", self.tolerance)
        if int(self.max_iter) < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.norm not in ("l1", "l2", "linf"):
            raise ConfigError(f"norm must be one of 'l1', 'l2', 'linf', got {self.norm!r}")
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceParams
        ):
            raise ConfigError(
                "resilience must be a ResilienceParams or None, got "
                f"{type(self.resilience).__name__}"
            )
        if self.audit is not None and not isinstance(self.audit, AuditParams):
            raise ConfigError(
                "audit must be an AuditParams or None, got "
                f"{type(self.audit).__name__}"
            )
        # Imported lazily: the registry lives in repro.linalg, which is
        # only reachable at call time without a config <-> linalg cycle.
        from .linalg.registry import solver_registry

        solver_registry.validate(self.solver)

    def with_(self, **overrides: object) -> "RankingParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)  # type: ignore[arg-type]


@dataclass(frozen=True, slots=True)
class ThrottleParams:
    """Parameters of throttling-vector assignment (Section 5 / 6.2).

    Parameters
    ----------
    strategy:
        How spam-proximity scores map to kappa values.  ``"top_k"`` is the
        paper's heuristic: the k highest-proximity sources get ``kappa_high``
        and everyone else ``kappa_low``.
    top_fraction:
        Fraction of sources throttled under ``"top_k"``.  The paper throttles
        the top 20,000 of 738,626 WB2001 sources (~2.7 %).
    kappa_high, kappa_low:
        Throttle levels for flagged / unflagged sources (paper: 1.0 and 0.0).
    threshold:
        Score cutoff for the ``"threshold"`` strategy.
    """

    strategy: Literal["top_k", "threshold", "proportional", "linear"] = "top_k"
    top_fraction: float = 20_000 / 738_626
    kappa_high: float = 1.0
    kappa_low: float = 0.0
    threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.strategy not in ("top_k", "threshold", "proportional", "linear"):
            raise ConfigError(f"unknown throttle strategy {self.strategy!r}")
        _check_unit_interval("top_fraction", self.top_fraction)
        _check_unit_interval("kappa_high", self.kappa_high)
        _check_unit_interval("kappa_low", self.kappa_low)
        if self.kappa_low > self.kappa_high:
            raise ConfigError(
                f"kappa_low ({self.kappa_low}) must not exceed kappa_high ({self.kappa_high})"
            )
        if self.threshold < 0.0:
            raise ConfigError(f"threshold must be >= 0, got {self.threshold!r}")


@dataclass(frozen=True, slots=True)
class SpamProximityParams:
    """Parameters of the inverse-walk spam-proximity computation (Section 5)."""

    beta: float = DEFAULT_ALPHA
    tolerance: float = DEFAULT_TOLERANCE
    max_iter: int = DEFAULT_MAX_ITER
    resilience: "ResilienceParams | None" = None
    audit: "AuditParams | None" = None
    checkpoint: "SolveCheckpointer | None" = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        _check_unit_interval("beta", self.beta, open_right=True)
        _check_positive("tolerance", self.tolerance)
        if int(self.max_iter) < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter!r}")
        object.__setattr__(self, "max_iter", int(self.max_iter))
        if self.resilience is not None and not isinstance(
            self.resilience, ResilienceParams
        ):
            raise ConfigError(
                "resilience must be a ResilienceParams or None, got "
                f"{type(self.resilience).__name__}"
            )
        if self.audit is not None and not isinstance(self.audit, AuditParams):
            raise ConfigError(
                "audit must be an AuditParams or None, got "
                f"{type(self.audit).__name__}"
            )

    def as_ranking_params(self) -> RankingParams:
        """View these parameters as generic :class:`RankingParams`."""
        return RankingParams(
            alpha=self.beta,
            tolerance=self.tolerance,
            max_iter=self.max_iter,
            resilience=self.resilience,
            audit=self.audit,
            checkpoint=self.checkpoint,
        )


@dataclass(frozen=True, slots=True)
class ExperimentParams:
    """Shared knobs of the Section 6 experimental protocol."""

    seed: int = 2007
    n_targets: int = 5
    cases: tuple[int, ...] = (1, 10, 100, 1000)
    bottom_fraction: float = 0.5
    seed_fraction: float = 1_000 / 10_315
    n_buckets: int = 20
    ranking: RankingParams = field(default_factory=RankingParams)
    throttle: ThrottleParams = field(default_factory=ThrottleParams)
    proximity: SpamProximityParams = field(default_factory=SpamProximityParams)

    def __post_init__(self) -> None:
        if int(self.n_targets) < 1:
            raise ConfigError(f"n_targets must be >= 1, got {self.n_targets!r}")
        object.__setattr__(self, "n_targets", int(self.n_targets))
        if not self.cases or any(int(c) < 1 for c in self.cases):
            raise ConfigError(f"cases must be positive counts, got {self.cases!r}")
        object.__setattr__(self, "cases", tuple(int(c) for c in self.cases))
        _check_unit_interval("bottom_fraction", self.bottom_fraction)
        _check_unit_interval("seed_fraction", self.seed_fraction)
        if int(self.n_buckets) < 2:
            raise ConfigError(f"n_buckets must be >= 2, got {self.n_buckets!r}")
        object.__setattr__(self, "n_buckets", int(self.n_buckets))
