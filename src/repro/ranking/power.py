"""Power-iteration solver for teleporting random walks.

Solves for the stationary distribution of

.. math::

    x^{T} \\gets \\alpha \\, x^{T} A + (\\text{dangling mass handling})
               + (1 - \\alpha) \\, c^{T}

where ``A`` is a row-(sub)stochastic CSR matrix — or any
:class:`~repro.linalg.operator.TransitionOperator`, so the throttled and
reversed walks run here without materializing their matrices.  The
iteration stops when the chosen norm of successive iterates drops below
the tolerance — the paper uses the L2 norm at ``1e-9``.

The transpose matvec is the operand's ``rmatvec``; the iteration loop
itself lives in :func:`repro.linalg.iterate.iterate_to_fixpoint`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..config import RankingParams
from ..errors import GraphError
from ..linalg.iterate import iterate_to_fixpoint, residual_norm
from ..linalg.operator import TransitionOperator, as_matrix, as_operator
from ..linalg.registry import register_solver
from .base import RankingResult
from .dangling import check_strategy
from .teleport import uniform_teleport

__all__ = ["power_iteration", "PowerOperator", "residual_norm"]


class PowerOperator:
    """One step of the teleporting-walk update over a transition operator.

    Encapsulates ``y = alpha * A^T x + alpha * leak(x) * teleport
    + (1 - alpha) * teleport`` where the leak term depends on the dangling
    strategy.  ``A`` is any :class:`~repro.linalg.operator.TransitionOperator`;
    a raw CSR matrix is wrapped in a
    :class:`~repro.linalg.operator.CsrOperator`.
    """

    def __init__(
        self,
        operand: "sp.spmatrix | TransitionOperator",
        alpha: float,
        teleport: np.ndarray,
        *,
        dangling: str = "linear",
    ) -> None:
        op = as_operator(operand)
        n = op.n
        teleport = np.asarray(teleport, dtype=np.float64).ravel()
        if teleport.size != n:
            raise GraphError(
                f"teleport vector length {teleport.size} != matrix order {n}"
            )
        self._op = op
        self.alpha = float(alpha)
        self.teleport = teleport
        self.dangling = check_strategy(dangling)

    @property
    def matrix(self) -> sp.csr_matrix:
        """The explicit transition matrix (materialized on demand)."""
        return self._op.materialize()

    @property
    def operator(self) -> TransitionOperator:
        """The underlying transition operator."""
        return self._op

    @property
    def kernel(self) -> str:
        """The operator's telemetry tag."""
        return self._op.kernel

    @property
    def n(self) -> int:
        """Matrix order."""
        return self._op.n

    @property
    def dangling_mask(self) -> np.ndarray:
        """Boolean mask of dangling (all-zero) rows."""
        return self._op.dangling_mask

    @property
    def n_dangling(self) -> int:
        """Number of dangling rows."""
        return int(self._op.dangling_mask.sum())

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``A^T @ x`` through the operator."""
        return self._op.rmatvec(x)

    def step(self, x: np.ndarray) -> np.ndarray:
        """Apply one full update, returning a new vector."""
        y = self.alpha * self.rmatvec(x)
        if self.dangling == "teleport":
            leak = float(x[self._op.dangling_mask].sum())
            if leak > 0.0:
                y += (self.alpha * leak) * self.teleport
        # "linear": let dangling mass leak (paper semantics — RankingResult
        # renormalizes at the end).  "self": caller already added self-loops.
        y += (1.0 - self.alpha) * self.teleport
        return y


def power_iteration(
    operand: "sp.csr_matrix | TransitionOperator",
    params: RankingParams,
    *,
    teleport: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    dangling: str = "linear",
    label: str = "",
    callback: Callable[[int, float], None] | None = None,
) -> RankingResult:
    """Run the power method to the stationary distribution.

    Parameters
    ----------
    operand:
        Row-(sub)stochastic transition matrix (CSR) or a
        :class:`~repro.linalg.operator.TransitionOperator` applying one
        lazily.
    params:
        Stopping rule and mixing parameter.
    teleport:
        Teleport distribution ``c``; uniform when omitted.
    x0:
        Warm-start iterate (the incremental-recompute path used by the
        spam-scenario experiments); defaults to the teleport vector.
    dangling:
        Dangling-mass strategy (see :mod:`repro.ranking.dangling`).
    label:
        Human-readable tag stored on the result.
    callback:
        Optional per-iteration hook ``(iteration, residual)``.

    Raises
    ------
    ConvergenceError
        When ``params.strict`` and ``max_iter`` is exhausted first.
    """
    if dangling == "self":
        from .dangling import apply_self_loops

        operand = apply_self_loops(as_matrix(operand))
    inner = as_operator(operand)
    n = inner.n
    c = (
        uniform_teleport(n)
        if teleport is None
        else np.asarray(teleport, dtype=np.float64).ravel()
    )
    op = PowerOperator(inner, params.alpha, c, dangling=dangling)
    x = c.copy() if x0 is None else np.asarray(x0, dtype=np.float64).ravel().copy()
    if x.size != n:
        raise GraphError(f"x0 length {x.size} != matrix order {n}")
    x, info = iterate_to_fixpoint(
        op.step,
        x,
        params,
        solver="power",
        label=label or "power",
        kernel=op.kernel,
        dangling_mask=op.dangling_mask,
        callback=callback,
    )
    return RankingResult(x, info, label=label)


register_solver("power", power_iteration, overwrite=True)
