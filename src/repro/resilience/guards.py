"""Numerical guardrails for the shared iteration engine.

A :class:`SolveGuard` is instantiated by
:func:`repro.linalg.iterate.iterate_to_fixpoint` whenever the active
:class:`~repro.config.RankingParams` carry an enabled
:class:`~repro.config.ResilienceParams`, and its :meth:`SolveGuard.check`
runs once per iteration, after the residual is measured.  It watches for
four distinct ways a long fixed-point solve goes wrong:

* **non-finite iterates** — a NaN or Inf anywhere in the iterate (or a
  non-finite residual), e.g. from a corrupted matvec buffer;
* **divergence** — the residual *growing* for a sustained run of
  iterations, the signature of an unstable splitting (Jacobi/Gauss–Seidel
  on a matrix whose iteration operator has spectral radius ≥ 1);
* **stagnation** — the residual plateauing above tolerance, burning
  iterations without progress;
* **deadline** — a wall-clock budget for the whole solve.

Each trip raises the matching typed subclass of
:class:`~repro.errors.ConvergenceError` with the *last finite iterate*
attached (``err.last_iterate``), so a
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
    last-finite-iterate copy, start time) and not reusable across solves.

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
        "_last_finite",
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
        self._last_finite: np.ndarray | None = None

    @property
    def last_finite(self) -> np.ndarray | None:
        """Copy of the most recent iterate that passed the finite scan."""
        return self._last_finite

    def _raise(self, err) -> None:
        err.last_iterate = self._last_finite
        raise err

    def check(self, iteration: int, x: np.ndarray, residual: float) -> None:
        """Evaluate all enabled guards against one iteration's outcome.

        Raises
        ------
        NumericalError
            Non-finite residual, or non-finite iterate on a scan step.
        DivergenceError
            ``divergence_window`` consecutive residual increases.
        StagnationError
            Relative improvement below ``stagnation_rtol`` across a full
            ``stagnation_window`` while the residual sits above tolerance.
        SolveDeadlineError
            Wall clock beyond ``deadline_seconds``.
        """
        p = self._params

        # --- non-finite iterate / residual ---------------------------------
        if not np.isfinite(residual):
            record_guard_trip("nan", self._label)
            self._raise(
                NumericalError(iteration, residual, self._tolerance, what="residual")
            )
        if p.check_finite_every and iteration % p.check_finite_every == 0:
            if not np.isfinite(x).all():
                record_guard_trip("nan", self._label)
                self._raise(
                    NumericalError(
                        iteration, residual, self._tolerance, what="iterate"
                    )
                )
            # A copy, so the warm start survives whatever the solver's
            # step function later does to its iterate.
            self._last_finite = np.array(x, dtype=np.float64, copy=True)

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
                        )
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
                        )
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
                    )
                )
