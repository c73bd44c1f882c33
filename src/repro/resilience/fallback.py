"""Solver fallback chains: when a guard trips, try the next solver.

A :class:`FallbackChain` strings registered solvers together
(``gauss_seidel → jacobi → power`` or any other order).  Each attempt
runs through the normal :class:`~repro.linalg.registry.SolverRegistry`
dispatch; when it fails with a :class:`~repro.errors.ConvergenceError`
(including the guard subclasses — NaN, divergence, stagnation, deadline)
the chain *warm-starts* the next solver from the failed attempt's last
finite iterate (``err.last_iterate``) rather than from cold, so progress
already paid for is never thrown away.

Every attempt is recorded in a :class:`SolveAttempt`; the winning
:class:`~repro.ranking.base.RankingResult` carries the full tuple as its
``provenance``, and each engaged fallback increments
``repro_fallbacks_total{kind="solver"}`` in the global metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError, ConvergenceError
from ..linalg.registry import solver_registry
from ..logging_utils import get_logger
from ..observability.tracing import emit as emit_event
from ..observability.metrics import get_registry

__all__ = ["SolveAttempt", "FallbackChain", "record_fallback"]

_logger = get_logger(__name__)


def record_fallback(kind: str) -> None:
    """Count one recovery action in the global metrics registry.

    Also lands a ``fallback`` event on the ambient event log, so the
    recovery shows up in the run's correlated timeline, not just as an
    aggregate counter.
    """
    get_registry().counter(
        "repro_fallbacks_total",
        "Recovery actions by kind (solver)",
        labelnames=("kind",),
    ).labels(kind=kind).inc()
    emit_event("fallback", fallback_kind=kind)


@dataclass(frozen=True, slots=True)
class SolveAttempt:
    """Provenance record of one solver attempt inside a chain.

    ``error`` is ``None`` on the successful attempt; ``warm_started``
    says whether the attempt began from a previous attempt's iterate.
    """

    solver: str
    error: str | None = None
    error_type: str | None = None
    warm_started: bool = False
    iterations: int = 0
    residual: float = float("nan")

    @property
    def succeeded(self) -> bool:
        """Whether this attempt produced the final result."""
        return self.error is None


class FallbackChain:
    """Ordered solver chain with warm-started failover.

    Parameters
    ----------
    solvers:
        Solver names tried in order; each must resolve in ``registry``.
    registry:
        Solver registry to dispatch through (the process-global one by
        default).
    catch:
        Exception types that trigger failover to the next solver.  Other
        exceptions propagate immediately — a chain must never mask a
        programming error as a numerical failure.

    Examples
    --------
    >>> from repro.config import RankingParams
    >>> chain = FallbackChain(("gauss_seidel", "jacobi", "power"))
    >>> chain.solvers
    ('gauss_seidel', 'jacobi', 'power')
    """

    def __init__(
        self,
        solvers: Sequence[str],
        *,
        registry=solver_registry,
        catch: tuple[type[BaseException], ...] = (ConvergenceError,),
    ) -> None:
        solvers = tuple(str(s) for s in solvers)
        if not solvers:
            raise ConfigError("FallbackChain needs at least one solver")
        for name in solvers:
            registry.validate(name)
        self.solvers = solvers
        self.registry = registry
        self.catch = tuple(catch)

    def solve(
        self,
        operand,
        params,
        *,
        label: str = "",
        x0: np.ndarray | None = None,
        **kwargs,
    ):
        """Run the chain until one solver converges.

        Parameters mirror :meth:`repro.linalg.registry.SolverRegistry.solve`;
        ``params.solver`` is overridden by each chain entry in turn, and
        ``params.strict`` is forced True per attempt so a non-converged
        attempt raises (and fails over) instead of returning a bad σ.

        Returns the winning :class:`~repro.ranking.base.RankingResult`
        with :class:`SolveAttempt` provenance attached.

        Raises
        ------
        ConvergenceError
            The last attempt's error, when every solver in the chain
            fails.  Its ``attempts`` attribute holds the full record.
        """
        attempts: list[SolveAttempt] = []
        last_error: BaseException | None = None
        for position, name in enumerate(self.solvers):
            attempt_params = params.with_(solver=name, strict=True)
            tag = f"{label or 'solve'}[{name}]"
            warm = x0 is not None and position > 0
            try:
                result = self.registry.solve(
                    operand,
                    attempt_params,
                    solver=name,
                    label=tag,
                    x0=x0,
                    **kwargs,
                )
            except self.catch as err:
                info = (
                    err
                    if isinstance(err, ConvergenceError)
                    else None
                )
                attempts.append(
                    SolveAttempt(
                        solver=name,
                        error=str(err),
                        error_type=type(err).__name__,
                        warm_started=warm,
                        iterations=getattr(info, "iterations", 0) or 0,
                        residual=float(getattr(info, "residual", float("nan"))),
                    )
                )
                last_error = err
                if position + 1 < len(self.solvers):
                    record_fallback("solver")
                carried = getattr(err, "last_iterate", None)
                if carried is not None:
                    x0 = np.asarray(carried, dtype=np.float64)
                _logger.warning(
                    "solver %r failed (%s: %s); %s",
                    name,
                    type(err).__name__,
                    err,
                    "falling back"
                    if position + 1 < len(self.solvers)
                    else "chain exhausted",
                )
                continue
            attempts.append(
                SolveAttempt(
                    solver=name,
                    warm_started=warm,
                    iterations=result.convergence.iterations,
                    residual=result.convergence.residual,
                )
            )
            result.provenance = tuple(attempts)
            return result
        assert last_error is not None
        last_error.attempts = tuple(attempts)  # type: ignore[attr-defined]
        raise last_error

    def as_solver(self):
        """This chain as a solver-contract callable.

        The returned function matches the registry's solver signature, so
        a chain can be :meth:`register`-ed and then selected anywhere a
        solver name is accepted (``RankingParams.solver``, CLI
        ``--solver``) — the whole pipeline gains failover without any
        call-site changes.
        """

        def _solve(operand, params, *, label: str = "", **kwargs):
            return self.solve(operand, params, label=label, **kwargs)

        return _solve

    def register(self, name: str | None = None) -> str:
        """Register this chain in the solver registry; returns the name.

        The default name encodes the chain (``fallback:a>b>c``) so
        identical chains re-registering are idempotent by overwrite.
        """
        name = name or "fallback:" + ">".join(self.solvers)
        self.registry.register(name, self.as_solver(), overwrite=True)
        return name
