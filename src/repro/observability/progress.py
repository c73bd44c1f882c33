"""Solver telemetry: the per-iteration hook and its standard collector.

The iterative solvers (:func:`repro.ranking.power.power_iteration`,
Jacobi, Gauss–Seidel) accept an optional :class:`ProgressCallback` via
``RankingParams.progress``.  When it is ``None`` — the default — the hot
loop performs **no** timing calls and **no** per-iteration allocation;
when set, the solver emits:

* ``on_solve_start``: solve shape (label, solver, the operator's kernel
  tag, matrix order, dangling-row count, stopping rule);
* ``on_iteration``: residual, step wall-time, and (power solver) the
  current dangling mass;
* ``on_solve_end``: the final :class:`~repro.ranking.base.ConvergenceInfo`.

:class:`SolverTelemetry` is the batteries-included collector: it records
every solve as a :class:`SolverRun` with full residual curves and step
timings, ready for JSON export via
:func:`repro.observability.export.build_metrics_payload`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

__all__ = ["ProgressCallback", "SolverRun", "SolverTelemetry"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..ranking.base import ConvergenceInfo


class ProgressCallback:
    """No-op base class for solver progress hooks.

    Subclass and override any subset; every method has an empty default so
    partial observers stay forward-compatible when new hooks are added.
    """

    def on_solve_start(
        self,
        label: str,
        *,
        solver: str,
        n: int,
        tolerance: float,
        max_iter: int,
        kernel: str | None = None,
        n_dangling: int = 0,
    ) -> None:
        """A solve is starting."""

    def on_iteration(
        self,
        label: str,
        iteration: int,
        residual: float,
        *,
        step_seconds: float = 0.0,
        dangling_mass: float | None = None,
    ) -> None:
        """One iteration completed."""

    def on_solve_end(self, label: str, info: "ConvergenceInfo") -> None:
        """The solve finished (converged or gave up)."""


@dataclass(slots=True)
class SolverRun:
    """Telemetry of one iterative solve."""

    label: str
    solver: str
    kernel: str | None
    n: int
    tolerance: float
    max_iter: int
    n_dangling: int = 0
    iterations: int = 0
    converged: bool = False
    final_residual: float = float("inf")
    wall_seconds: float = 0.0
    residuals: list[float] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)
    dangling_mass: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (residual curve included)."""
        out: dict[str, object] = {
            "label": self.label,
            "solver": self.solver,
            "kernel": self.kernel,
            "n": self.n,
            "tolerance": self.tolerance,
            "max_iter": self.max_iter,
            "n_dangling": self.n_dangling,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_residual": self.final_residual,
            "wall_seconds": self.wall_seconds,
            "residuals": list(self.residuals),
            "step_seconds": list(self.step_seconds),
        }
        if self.dangling_mass:
            out["dangling_mass"] = list(self.dangling_mass)
        return out


class SolverTelemetry(ProgressCallback):
    """Collects every solve it observes into :class:`SolverRun` records.

    One instance may observe many sequential solves (a whole pipeline
    run, or a whole experiment sweep); runs are appended in completion
    order.  Nested solves (a solver invoking another solver) are handled
    with a stack.
    """

    def __init__(self) -> None:
        self.runs: list[SolverRun] = []
        self._open: list[tuple[SolverRun, float]] = []

    def on_solve_start(
        self,
        label: str,
        *,
        solver: str,
        n: int,
        tolerance: float,
        max_iter: int,
        kernel: str | None = None,
        n_dangling: int = 0,
    ) -> None:
        run = SolverRun(
            label=label,
            solver=solver,
            kernel=kernel,
            n=int(n),
            tolerance=float(tolerance),
            max_iter=int(max_iter),
            n_dangling=int(n_dangling),
        )
        self._open.append((run, time.perf_counter()))

    def on_iteration(
        self,
        label: str,
        iteration: int,
        residual: float,
        *,
        step_seconds: float = 0.0,
        dangling_mass: float | None = None,
    ) -> None:
        if not self._open:
            return
        run = self._open[-1][0]
        run.iterations = int(iteration)
        run.residuals.append(float(residual))
        run.step_seconds.append(float(step_seconds))
        if dangling_mass is not None:
            run.dangling_mass.append(float(dangling_mass))

    def on_solve_end(self, label: str, info: "ConvergenceInfo") -> None:
        if not self._open:
            return
        run, started = self._open.pop()
        run.wall_seconds = time.perf_counter() - started
        run.iterations = info.iterations
        run.converged = info.converged
        run.final_residual = info.residual
        if not run.residuals and info.residual_history:
            run.residuals = [float(r) for r in info.residual_history]
        self.runs.append(run)

    # ------------------------------------------------------------------
    def iteration_counts(self) -> dict[str, int]:
        """Total iterations per solve label (summed over repeat solves)."""
        counts: dict[str, int] = {}
        for run in self.runs:
            counts[run.label] = counts.get(run.label, 0) + run.iterations
        return counts

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation of all collected runs."""
        return {
            "runs": [run.as_dict() for run in self.runs],
            "iteration_counts": self.iteration_counts(),
        }

    def clear(self) -> None:
        """Drop all collected runs (and any half-open solves)."""
        self.runs.clear()
        self._open.clear()
