"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate the failure domain (graph construction, numerical
convergence, configuration, IO, ...).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "EmptyGraphError",
    "NodeIndexError",
    "SourceAssignmentError",
    "ThrottleError",
    "ConvergenceError",
    "NumericalError",
    "DivergenceError",
    "StagnationError",
    "SolveDeadlineError",
    "AuditError",
    "ServingError",
    "AdmissionError",
    "DeadlineExceededError",
    "FleetError",
    "InjectedFaultError",
    "ConfigError",
    "DatasetError",
    "CodecError",
    "ScenarioError",
    "ObservabilityError",
]


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class GraphError(ReproError):
    """Raised for structurally invalid graphs or inconsistent graph inputs."""


class EmptyGraphError(GraphError):
    """Raised when an operation requires a non-empty graph."""


class NodeIndexError(GraphError, IndexError):
    """Raised when a node identifier is outside the valid ``[0, n)`` range."""

    def __init__(self, node: int, n_nodes: int) -> None:
        super().__init__(f"node {node} out of range for graph with {n_nodes} nodes")
        self.node = int(node)
        self.n_nodes = int(n_nodes)


class SourceAssignmentError(ReproError):
    """Raised when a page-to-source assignment is malformed or incomplete."""


class ThrottleError(ReproError):
    """Raised for invalid throttling vectors or throttle transforms."""


class ConvergenceError(ReproError):
    """Raised when an iterative solver fails to reach its tolerance.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final residual norm when iteration stopped.
    tolerance:
        The requested stopping tolerance.
    last_iterate:
        The last *finite* iterate seen before failure (a NumPy vector), or
        ``None`` when no finite iterate is available.  Fallback chains use
        it to warm-start the next solver in line.
    """

    def __init__(
        self,
        iterations: int,
        residual: float,
        tolerance: float,
        message: str | None = None,
    ) -> None:
        super().__init__(
            message
            or f"solver failed to converge: residual {residual:.3e} > "
            f"tolerance {tolerance:.3e} after {iterations} iterations"
        )
        self.iterations = int(iterations)
        self.residual = float(residual)
        self.tolerance = float(tolerance)
        self.last_iterate: object | None = None


class NumericalError(ConvergenceError):
    """Raised when an iterate (or its residual) turns NaN/Inf mid-solve."""

    def __init__(
        self, iterations: int, residual: float, tolerance: float, *, what: str = "iterate"
    ) -> None:
        super().__init__(
            iterations,
            residual,
            tolerance,
            f"non-finite {what} at iteration {iterations} "
            f"(residual {residual!r})",
        )
        self.what = what


class DivergenceError(ConvergenceError):
    """Raised on sustained residual growth (the solve is moving away)."""

    def __init__(
        self, iterations: int, residual: float, tolerance: float, *, window: int
    ) -> None:
        super().__init__(
            iterations,
            residual,
            tolerance,
            f"solver diverging: residual grew for {window} consecutive "
            f"iterations, reaching {residual:.3e} at iteration {iterations}",
        )
        self.window = int(window)


class StagnationError(ConvergenceError):
    """Raised when the residual plateaus above tolerance (no progress)."""

    def __init__(
        self,
        iterations: int,
        residual: float,
        tolerance: float,
        *,
        window: int,
        improvement: float,
    ) -> None:
        super().__init__(
            iterations,
            residual,
            tolerance,
            f"solver stagnated: residual {residual:.3e} improved only "
            f"{improvement:.1%} over the last {window} iterations "
            f"(tolerance {tolerance:.3e} still out of reach)",
        )
        self.window = int(window)
        self.improvement = float(improvement)


class SolveDeadlineError(ConvergenceError):
    """Raised when a solve exceeds its wall-clock deadline."""

    def __init__(
        self,
        iterations: int,
        residual: float,
        tolerance: float,
        *,
        deadline_seconds: float,
        elapsed_seconds: float,
    ) -> None:
        super().__init__(
            iterations,
            residual,
            tolerance,
            f"solve deadline exceeded: {elapsed_seconds:.2f}s elapsed "
            f"(deadline {deadline_seconds:.2f}s) after {iterations} iterations "
            f"at residual {residual:.3e}",
        )
        self.deadline_seconds = float(deadline_seconds)
        self.elapsed_seconds = float(elapsed_seconds)


class AuditError(ReproError):
    """Raised when a strict-mode correctness audit finds invariant violations.

    Attributes
    ----------
    violations:
        The :class:`~repro.audit.invariants.InvariantViolation` records
        that tripped the audit (at least one).
    """

    def __init__(self, violations: tuple) -> None:
        violations = tuple(violations)
        if violations:
            detail = "; ".join(str(v) for v in violations[:5])
            if len(violations) > 5:
                detail += f"; ... ({len(violations) - 5} more)"
        else:  # pragma: no cover - defensive
            detail = "unspecified violation"
        super().__init__(
            f"correctness audit failed with {max(len(violations), 1)} "
            f"violation(s): {detail}"
        )
        self.violations = violations


class ServingError(ReproError):
    """Raised by the ranking service when a query cannot be answered."""


class AdmissionError(ServingError):
    """Raised when a serving component refuses to admit a request.

    Attributes
    ----------
    reason:
        Why admission was refused: ``"read_only"`` (the service has
        degraded past its last fallback and accepts no writes),
        ``"queue_full"`` (bounded-queue admission control on the
        updater), or ``"overload"`` (front-door load shedding while
        deadlines are burning).
    retry_after:
        Suggested wait (seconds) before retrying, or ``None`` when the
        refusal is not load-related (e.g. ``read_only``).
    """

    def __init__(
        self, reason: str, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after = None if retry_after is None else float(retry_after)


class DeadlineExceededError(ServingError):
    """Raised when a read burns through its per-operation deadline budget.

    Attributes
    ----------
    op:
        The operation whose budget ran out (``"score"``, ``"top_k"``,
        ...), or ``None`` when raised by the blocking client.
    deadline_seconds:
        The budget that was exceeded.
    elapsed_seconds:
        Wall-clock time actually spent before giving up.
    """

    def __init__(
        self,
        message: str,
        *,
        op: str | None = None,
        deadline_seconds: float | None = None,
        elapsed_seconds: float | None = None,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.deadline_seconds = (
            None if deadline_seconds is None else float(deadline_seconds)
        )
        self.elapsed_seconds = (
            None if elapsed_seconds is None else float(elapsed_seconds)
        )


class FleetError(ServingError):
    """Raised by the replicated serving fleet (spawn, transport, exhaustion).

    Attributes
    ----------
    replica:
        Id of the replica involved, or ``None`` when the failure is not
        attributable to a single replica (e.g. every replica evicted).
    """

    def __init__(self, message: str, *, replica: int | None = None) -> None:
        super().__init__(message)
        self.replica = replica


class InjectedFaultError(ReproError):
    """Raised by the deterministic fault-injection harness (tests/benches)."""


class ConfigError(ReproError, ValueError):
    """Raised when a configuration parameter is out of its legal domain."""


class DatasetError(ReproError):
    """Raised by dataset generators and the dataset registry."""


class CodecError(ReproError):
    """Raised on malformed bytes: the graph codec and the on-disk container.

    ``reason`` names the failure for the rejects counters; the container
    raises ``"unreadable"`` or ``"digest"``.
    """

    def __init__(self, message: str = "", *, reason: str = "unreadable") -> None:
        super().__init__(message)
        self.reason = reason


class ScenarioError(ReproError):
    """Raised when a spam scenario cannot be assembled on a given graph."""


class ObservabilityError(ReproError, ValueError):
    """Raised for invalid metric/label names or misused metric families."""
