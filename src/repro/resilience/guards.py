"""Numerical guardrails for the shared iteration engine.

A :class:`SolveGuard` is instantiated by
:func:`repro.linalg.iterate.iterate_to_fixpoint` whenever the active
:class:`~repro.config.RankingParams` carry an enabled
:class:`~repro.config.ResilienceParams`, and its :meth:`SolveGuard.check`
runs once per iteration, after the residual is measured.  It watches for
four distinct ways a long fixed-point solve goes wrong:

* **non-finite iterates** — a NaN or Inf anywhere in the iterate, e.g.
  from a corrupted matvec buffer.  It always shows as a non-finite
  residual (the difference of a non-finite iterate from a finite one is
  non-finite under every norm), so the residual is all the guard reads;
* **divergence** — the residual *growing* for a sustained run of
  iterations, the signature of an unstable splitting (Jacobi/Gauss–Seidel
  on a matrix whose iteration operator has spectral radius ≥ 1);
* **stagnation** — the residual plateauing above tolerance, burning
  iterations without progress;
* **deadline** — a wall-clock budget for the whole solve.

Each trip raises the matching typed subclass of
:class:`~repro.errors.ConvergenceError` with a copy of the engine's *last
finite iterate* attached (``err.last_iterate``): the previous iterate for
a non-finite residual, the current one for the other trips.  So a
:class:`~repro.resilience.fallback.FallbackChain` can warm-start the next
solver from wherever the failed one got to.  Every trip is also counted
in the global metrics registry under ``repro_guard_trips_total{kind=...}``.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import ResilienceParams
from ..errors import (
    DivergenceError,
    NumericalError,
    SolveDeadlineError,
    StagnationError,
)
from ..logging_utils import get_logger
from ..observability.metrics import get_registry

__all__ = ["SolveGuard", "record_guard_trip"]

_logger = get_logger(__name__)


def record_guard_trip(kind: str, label: str = "") -> None:
    """Count one guard trip in the global metrics registry."""
    get_registry().counter(
        "repro_guard_trips_total",
        "Numerical-guard trips by kind (nan/divergence/stagnation/deadline)",
        labelnames=("kind",),
    ).labels(kind=kind).inc()
    _logger.warning("guard trip [%s]%s", kind, f" in {label}" if label else "")


class SolveGuard:
    """Per-solve watchdog evaluating the configured guardrails.

    One instance guards one solve; it is stateful (residual window,
    start time) and not reusable across solves.

    Parameters
    ----------
    params:
        The guard configuration.
    tolerance:
        The solve's stopping tolerance (stagnation only fires above it).
    label:
        Solve tag used in log lines.
    clock:
        Monotonic time source, injectable for tests.
    """

    __slots__ = (
        "_params",
        "_tolerance",
        "_label",
        "_clock",
        "_started",
        "_growth_run",
        "_prev_residual",
        "_window",
    )

    def __init__(
        self,
        params: ResilienceParams,
        *,
        tolerance: float,
        label: str = "",
        clock=time.monotonic,
    ) -> None:
        self._params = params
        self._tolerance = float(tolerance)
        self._label = label
        self._clock = clock
        self._started = clock()
        self._growth_run = 0
        self._prev_residual = np.inf
        self._window: list[float] = []

    @staticmethod
    def _raise(err, iterate: np.ndarray | None) -> None:
        if iterate is not None and np.isfinite(iterate).all():
            err.last_iterate = np.array(iterate, dtype=np.float64, copy=True)
        raise err

    def check(
        self,
        iteration: int,
        x: np.ndarray,
        residual: float,
        previous: np.ndarray | None = None,
    ) -> None:
        """Evaluate all enabled guards against one iteration's outcome.

        ``x`` is the iterate this iteration produced and ``previous`` the
        one it was computed from.  A NaN trip's error carries a copy of
        ``previous`` (the engine's last finite iterate), any other trip's
        a copy of ``x``.

        Raises
        ------
        NumericalError
            Non-finite residual.
        DivergenceError
            ``divergence_window`` consecutive residual increases.
        StagnationError
            Relative improvement below ``stagnation_rtol`` across a full
            ``stagnation_window`` while the residual sits above tolerance.
        SolveDeadlineError
            Wall clock beyond ``deadline_seconds``.
        """
        p = self._params

        # --- non-finite iterate (seen through its residual) ----------------
        if not np.isfinite(residual):
            record_guard_trip("nan", self._label)
            self._raise(
                NumericalError(iteration, residual, self._tolerance, what="residual"),
                previous,
            )

        # --- divergence -----------------------------------------------------
        if p.divergence_window:
            if residual > self._prev_residual:
                self._growth_run += 1
                if self._growth_run >= p.divergence_window:
                    record_guard_trip("divergence", self._label)
                    self._raise(
                        DivergenceError(
                            iteration,
                            residual,
                            self._tolerance,
                            window=self._growth_run,
                        ),
                        x,
                    )
            else:
                self._growth_run = 0
        self._prev_residual = residual

        # --- stagnation -----------------------------------------------------
        if p.stagnation_window and residual > self._tolerance:
            self._window.append(residual)
            if len(self._window) > p.stagnation_window:
                oldest = self._window.pop(0)
                improvement = (
                    (oldest - residual) / oldest if oldest > 0 else 0.0
                )
                if improvement < p.stagnation_rtol:
                    record_guard_trip("stagnation", self._label)
                    self._raise(
                        StagnationError(
                            iteration,
                            residual,
                            self._tolerance,
                            window=p.stagnation_window,
                            improvement=improvement,
                        ),
                        x,
                    )

        # --- wall-clock deadline -------------------------------------------
        if p.deadline_seconds is not None:
            elapsed = self._clock() - self._started
            if elapsed > p.deadline_seconds:
                record_guard_trip("deadline", self._label)
                self._raise(
                    SolveDeadlineError(
                        iteration,
                        residual,
                        self._tolerance,
                        deadline_seconds=p.deadline_seconds,
                        elapsed_seconds=elapsed,
                    ),
                    x,
                )
