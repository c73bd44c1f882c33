"""The shared fixed-point iteration engine.

Every iterative ranking solve in the library — power iteration, Jacobi,
Gauss–Seidel, and any future registered solver — is the same loop: apply
one update step, measure the residual between successive iterates under
the configured norm, record telemetry, stop at tolerance or ``max_iter``.
:func:`iterate_to_fixpoint` is that loop, written once.  Solvers supply
only their step function; the engine owns

* the ``solve:<label>`` span, which carries the solve's shape (solver,
  kernel, order, dangling rows, stopping rule) and outcome (iterations,
  convergence, final residual, residual curve) and — under a profiling
  tracer only — per-iteration step seconds and dangling mass; plus the
  ``solve_start``/``solve_end``/``solve_failed`` events.  All of it costs
  nothing when no tracer is active;
* the residual history and the strict-raise / lenient-warn convergence
  contract;
* the resilience hooks — when ``params.resilience`` is set, a
  :class:`~repro.resilience.guards.SolveGuard` checks every residual for
  NaN/Inf, sustained divergence, stagnation, and wall-clock deadline
  (raising the typed :class:`~repro.errors.ConvergenceError` subclasses);
  when ``params.checkpoint`` carries a
  :class:`~repro.resilience.checkpoint.SolveCheckpointer`, the iterate is
  checkpointed periodically and the solve resumes from stored state.
  Both are zero-cost when unset.

:class:`ConvergenceInfo` lives here (below the ranking layer) so that
both the engine and the result types can use it without an import cycle;
:mod:`repro.ranking.base` re-exports it under its historical name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..errors import ConfigError, ConvergenceError
from ..logging_utils import get_logger
from ..observability.tracing import current_tracer, emit, span

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..config import RankingParams

__all__ = ["ConvergenceInfo", "residual_norm", "iterate_to_fixpoint"]

_logger = get_logger(__name__)


@dataclass(frozen=True, slots=True)
class ConvergenceInfo:
    """Record of an iterative solve.

    Attributes
    ----------
    converged:
        Whether the residual dropped below the tolerance.
    iterations:
        Iterations actually performed.
    residual:
        Final residual norm (same norm as the stopping rule).
    tolerance:
        The requested stopping tolerance.
    residual_history:
        Residual after each iteration — the convergence curve, used by the
        solver-ablation bench.
    """

    converged: bool
    iterations: int
    residual: float
    tolerance: float
    residual_history: tuple[float, ...] = ()

    def convergence_summary(self, *, curve_points: int = 5) -> str:
        """One-line human summary: outcome, iterations, residual tail.

        >>> info = ConvergenceInfo(True, 3, 5e-10, 1e-9,
        ...                        (1e-2, 1e-6, 5e-10))
        >>> info.convergence_summary()
        'converged in 3 iterations (residual 5.00e-10, tolerance 1.00e-09); last residuals: 1.00e-02 -> 1.00e-06 -> 5.00e-10'
        """
        state = "converged" if self.converged else "did NOT converge"
        text = (
            f"{state} in {self.iterations} iterations "
            f"(residual {self.residual:.2e}, tolerance {self.tolerance:.2e})"
        )
        tail = self.residual_history[-max(int(curve_points), 0):]
        if tail:
            curve = " -> ".join(f"{r:.2e}" for r in tail)
            text += f"; last residuals: {curve}"
        return text


def residual_norm(diff: np.ndarray, norm: str) -> float:
    """Norm of an iterate difference under the configured stopping norm."""
    if norm == "l1":
        return float(np.abs(diff).sum())
    if norm == "l2":
        return float(np.linalg.norm(diff))
    if norm == "linf":
        return float(np.abs(diff).max())
    raise ConfigError(f"unknown norm {norm!r}")


def iterate_to_fixpoint(
    step: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    params: "RankingParams",
    *,
    solver: str,
    label: str = "",
    kernel: str | None = None,
    dangling_mask: np.ndarray | None = None,
    callback: Callable[[int, float], None] | None = None,
    span_meta: Mapping[str, object] | None = None,
) -> tuple[np.ndarray, ConvergenceInfo]:
    """Iterate ``x <- step(x)`` until the stopping rule fires.

    Parameters
    ----------
    step:
        One full update.  Must return a vector distinct from its input
        (the residual is computed between the two).
    x0:
        Starting iterate; not mutated.
    params:
        Stopping rule (``tolerance``, ``max_iter``, ``norm``, ``strict``)
        plus the optional resilience, audit and checkpoint hooks.
    solver:
        Solver name for the solve span (``"power"``, ``"jacobi"``, ...).
    label:
        Human-readable solve tag; falls back to ``solver``.
    kernel:
        The operator's telemetry tag (``scipy``/``blocked``), recorded on
        the solve span when set (the linear solvers pass ``None`` — they
        iterate on a materialized matrix, not an operator).
    dangling_mask:
        Boolean mask of dangling rows.  When given, the solve span
        records the dangling-row count and, under a profiling tracer,
        the dangling mass after every iteration; ``None`` omits both.
    callback:
        Optional per-iteration hook ``(iteration, residual)``.
    span_meta:
        Extra key/values attached to the ``solve:<label>`` span.

    Returns
    -------
    tuple
        ``(x, info)`` — the final iterate and its convergence record.

    Raises
    ------
    ConvergenceError
        When ``params.strict`` and ``max_iter`` is exhausted first, or —
        as one of the typed subclasses — when an enabled resilience guard
        trips (NaN/Inf iterate, divergence, stagnation, deadline).  The
        error carries the last finite iterate on ``last_iterate`` so
        fallback chains can warm-start.
    """
    tag = label or solver
    n = int(np.asarray(x0).size)
    meta: dict[str, object] = dict(span_meta or {})
    if kernel is not None:
        meta.setdefault("kernel", kernel)
    resilience = getattr(params, "resilience", None)
    guard = None
    if resilience is not None:
        # Imported lazily: repro.resilience sits beside this layer and
        # importing it at module scope would cycle through the registry.
        from ..resilience.guards import SolveGuard

        guard = SolveGuard(resilience, tolerance=params.tolerance, label=tag)
    audit = getattr(params, "audit", None)
    mass_auditor = None
    if audit is not None and audit.check_every and solver == "power":
        # Lazily imported like the guards (repro.audit sits above this
        # layer).  Power only: the linear solvers' intermediate iterates
        # are not probability distributions, so mass conservation is not
        # an invariant there.
        from ..audit.invariants import IterateMassAuditor

        mass_auditor = IterateMassAuditor(
            audit,
            subject=tag,
            # With dangling rows the "linear" handling lets mass leak
            # (never grow); "teleport" keeps mass at 1, which the leaky
            # bound also accepts.
            leaky=dangling_mask is not None and bool(dangling_mask.any()),
        )
    ckpt = getattr(params, "checkpoint", None)
    ckpt_every = 0
    start_iteration = 0
    if ckpt is not None:
        ckpt_every = (
            resilience.checkpoint_every
            if resilience is not None and resilience.checkpoint_every
            else ckpt.every
        )
        state = ckpt.load(tag)
        if state is not None and state.x.size == n:
            x0 = state.x.copy()
            start_iteration = min(int(state.iteration), params.max_iter - 1)
            meta.setdefault("resumed_from", start_iteration)
    # Events are per-solve (never per-iteration) and free when no tracer
    # is active.
    emit(
        "solve_start",
        label=tag,
        solver=solver,
        n=n,
        tolerance=params.tolerance,
        max_iter=params.max_iter,
        resumed_from=start_iteration or None,
    )
    try:
        return _iterate_inner(
            step,
            x0,
            params,
            solver=solver,
            tag=tag,
            dangling_mask=dangling_mask,
            callback=callback,
            meta=meta,
            guard=guard,
            mass_auditor=mass_auditor,
            audit=audit,
            ckpt=ckpt,
            ckpt_every=ckpt_every,
            start_iteration=start_iteration,
            n=n,
        )
    except ConvergenceError as exc:
        # Guard trips (NaN, divergence, stagnation, deadline) and strict
        # non-convergence leave through here; stamp the failure so the
        # event log shows *why* a fallback or degradation followed.
        emit(
            "solve_failed",
            label=tag,
            solver=solver,
            error=type(exc).__name__,
            detail=str(exc),
        )
        raise


def _iterate_inner(
    step,
    x0,
    params,
    *,
    solver,
    tag,
    dangling_mask,
    callback,
    meta,
    guard,
    mass_auditor,
    audit,
    ckpt,
    ckpt_every,
    start_iteration,
    n,
):
    tracer = current_tracer()
    with span(
        f"solve:{tag}",
        solver=solver,
        n=n,
        tolerance=params.tolerance,
        max_iter=params.max_iter,
        **meta,
    ) as record:
        # Per-iteration series cost a clock read (and a masked sum) per
        # step, so only a profiling tracer records them.
        series = tracer is not None and tracer.profile
        step_seconds: list[float] = []
        dangling_mass: list[float] = []
        track_dangling = False
        if record is not None and dangling_mask is not None:
            n_dangling = int(dangling_mask.sum())
            record.meta["n_dangling"] = n_dangling
            track_dangling = series and n_dangling > 0
        x = x0
        history: list[float] = []
        residual = np.inf
        iterations = start_iteration
        try:
            for iterations in range(start_iteration + 1, params.max_iter + 1):
                if series:
                    t0 = time.perf_counter()
                x_next = step(x)
                residual = residual_norm(x_next - x, params.norm)
                history.append(residual)
                x_prev, x = x, x_next
                if series:
                    step_seconds.append(time.perf_counter() - t0)
                    if track_dangling:
                        dangling_mass.append(float(x[dangling_mask].sum()))
                if callback is not None:
                    callback(iterations, residual)
                if mass_auditor is not None and iterations % audit.check_every == 0:
                    mass_auditor.check(iterations, x)
                if residual < params.tolerance:
                    break
                if guard is not None:
                    guard.check(iterations, x, residual, x_prev)
                if not np.isfinite(residual):
                    # No later iterate can recover; keep the last finite one,
                    # and never checkpoint a non-finite one.
                    x = x_prev
                    break
                if ckpt is not None and iterations % ckpt_every == 0:
                    ckpt.save(tag, x, iterations, residual)
        finally:
            converged = bool(residual < params.tolerance)
            if record is not None:
                record.meta.update(
                    iterations=iterations,
                    converged=converged,
                    final_residual=float(residual),
                    residuals=history,
                )
                if series:
                    record.meta["step_seconds"] = step_seconds
                    if track_dangling:
                        record.meta["dangling_mass"] = dangling_mass
    if ckpt is not None and converged:
        ckpt.save(tag, x, iterations, residual)
    info = ConvergenceInfo(
        converged=converged,
        iterations=iterations,
        residual=float(residual),
        tolerance=params.tolerance,
        residual_history=tuple(history),
    )
    emit(
        "solve_end",
        label=tag,
        solver=solver,
        converged=converged,
        iterations=iterations,
        residual=float(residual),
    )
    if not converged:
        if params.strict:
            err = ConvergenceError(iterations, residual, params.tolerance)
            if np.isfinite(np.asarray(x)).all():
                err.last_iterate = np.array(x, dtype=np.float64, copy=True)
            raise err
        _logger.warning(
            "%s did not converge: residual %.3e after %d iterations",
            tag,
            residual,
            iterations,
        )
    return x, info
