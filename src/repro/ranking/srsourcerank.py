"""Spam-Resilient SourceRank (Eq. 3 — the paper's contribution).

The selective random walk of Section 3.4: at source ``s_i`` the walker

* follows the self-edge with probability ``α κ_i``;
* follows an out-edge with probability ``α (1 − κ_i)``;
* teleports with probability ``1 − α``.

Equivalently, the stationary distribution of
``σᵀ = α σᵀ T'' + (1 − α) cᵀ`` where ``T''`` is the influence-throttled
transition matrix.

``T''`` is never materialized here: the throttle transform is applied
lazily by :class:`~repro.linalg.operator.ThrottledOperator` (a per-row
out-scale plus a diagonal self-edge term on top of the base matrix), so a
κ-sweep or incremental rerun reuses one base matrix across every κ.
Solvers that require an explicit system matrix (Jacobi, Gauss–Seidel)
materialize it themselves through the operator, landing on exactly the
matrix :func:`~repro.throttle.transform.throttle_transform` would build.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..config import RankingParams
from ..linalg.operator import CsrOperator, ThrottledOperator
from ..linalg.registry import solver_registry
from ..sources.sourcegraph import SourceGraph
from ..throttle.vector import ThrottleVector
from .base import RankingResult

__all__ = ["spam_resilient_sourcerank"]


def spam_resilient_sourcerank(
    source_graph: SourceGraph,
    kappa: ThrottleVector | np.ndarray | None = None,
    params: RankingParams | None = None,
    *,
    teleport: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    solver: str | None = None,
    full_throttle: str = "self",
    operator: CsrOperator | None = None,
    callback: "Callable[[int, float], None] | None" = None,
) -> RankingResult:
    """Compute the Spam-Resilient SourceRank vector σ.

    Parameters
    ----------
    source_graph:
        The weighted source graph (consensus weighting for the paper's
        model).
    kappa:
        Throttling vector; ``None`` or all-zeros degrades gracefully to
        baseline SourceRank (the κ=0 walk is the unthrottled walk).
    params:
        Mixing parameter and stopping rule (paper defaults when omitted).
    teleport, x0, solver:
        As in :func:`repro.ranking.pagerank.pagerank`.
    full_throttle:
        How κ = 1 sources behave: ``"self"`` (literal Section 3.3
        transform) or ``"dangling"`` (complete muting — the reading
        Fig. 5 needs; see :mod:`repro.throttle.transform`).
    operator:
        Prebuilt :class:`~repro.linalg.operator.CsrOperator` over the
        *unthrottled* source matrix; pass one to reuse its transposed
        CSR across a κ-sweep.
    callback:
        Per-iteration ``(iteration, residual)`` hook forwarded to the
        solver (part of the uniform solver contract).

    Returns
    -------
    RankingResult
        L1-normalized σ plus convergence info.
    """
    params = params or RankingParams()
    n = source_graph.n_sources
    if kappa is None:
        kappa = ThrottleVector.zeros(n)
    elif not isinstance(kappa, ThrottleVector):
        kappa = ThrottleVector(kappa)
    throttled = ThrottledOperator(
        source_graph.matrix if operator is None else operator,
        kappa,
        full_throttle=full_throttle,
    )
    return solver_registry.solve(
        throttled,
        params,
        solver=solver,
        label="sr-sourcerank",
        teleport=teleport,
        x0=x0,
        callback=callback,
    )
