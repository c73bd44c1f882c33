"""Jacobi linear-system solver for teleporting-walk rankings.

The paper notes (Section 2) that Eq. 1 "can be solved using a stationary
iterative method like Jacobi iterations [18]".  The linear form is

.. math::

    (I - \\alpha A^{T}) \\, x = (1 - \\alpha) \\, c

and Jacobi splits the system matrix into its diagonal ``D`` and off-diagonal
remainder: ``x_{k+1} = D^{-1} (b + \\alpha A^{T}_{off} x_k)``.  On the page
matrix the diagonal of ``A`` is zero and Jacobi coincides with the power
method on the linear form; on the *source* matrix the self-edges give a
non-trivial diagonal and Jacobi genuinely differs — which is why the solver
ablation exists.

The sweep loop itself lives in
:func:`repro.linalg.iterate.iterate_to_fixpoint`; this module contributes
only the splitting.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..config import RankingParams
from ..errors import GraphError
from ..linalg.iterate import iterate_to_fixpoint
from ..linalg.operator import TransitionOperator, as_matrix
from ..linalg.registry import register_solver
from .base import RankingResult
from .teleport import uniform_teleport

__all__ = ["jacobi_solve"]


def jacobi_solve(
    operand: "sp.csr_matrix | TransitionOperator",
    params: RankingParams,
    *,
    teleport: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    label: str = "",
    dangling: str = "linear",
    callback: Callable[[int, float], None] | None = None,
) -> RankingResult:
    """Solve the ranking linear system with Jacobi iterations.

    Parameters mirror :func:`repro.ranking.power.power_iteration`; dangling
    mass follows the paper's "linear" semantics (leak + final
    renormalization inside :class:`~repro.ranking.base.RankingResult`), so
    the ``dangling`` argument of the uniform solver signature is accepted
    and ignored.  Operator operands are materialized — Jacobi needs the
    explicit matrix diagonal.
    """
    del dangling  # linear-solver path: no dangling-strategy choice
    matrix = as_matrix(operand)
    n = matrix.shape[0]
    c = uniform_teleport(n) if teleport is None else np.asarray(teleport, dtype=np.float64).ravel()
    if c.size != n:
        raise GraphError(f"teleport length {c.size} != matrix order {n}")
    b = (1.0 - params.alpha) * c

    diag = matrix.diagonal()
    d = 1.0 - params.alpha * diag
    if (d <= 0).any():
        raise GraphError(
            "Jacobi diagonal must be positive: found alpha * A_ii >= 1"
        )
    inv_d = 1.0 / d
    # Off-diagonal part of alpha * A^T, as CSR for fast matvec.
    off = (params.alpha * (matrix - sp.diags(diag))).T.tocsr()

    x = c.copy() if x0 is None else np.asarray(x0, dtype=np.float64).ravel().copy()
    if x.size != n:
        raise GraphError(f"x0 length {x.size} != matrix order {n}")

    x, info = iterate_to_fixpoint(
        lambda v: inv_d * (b + off @ v),
        x,
        params,
        solver="jacobi",
        label=label or "jacobi",
        callback=callback,
    )
    return RankingResult(x, info, label=label)


register_solver("jacobi", jacobi_solve, overwrite=True)
