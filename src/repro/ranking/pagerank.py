"""PageRank over the page graph (the paper's baseline, Eq. 1).

.. math::

    \\pi = \\alpha M^{T} \\pi + (1 - \\alpha) e

with ``M`` the uniform out-degree-normalized page transition matrix and
``e`` the uniform static score vector.
"""

from __future__ import annotations

import numpy as np

from ..config import RankingParams
from ..graph.matrix import transition_matrix
from ..graph.pagegraph import PageGraph
from ..linalg.registry import solver_registry
from .base import RankingResult

__all__ = ["pagerank"]


def pagerank(
    graph: PageGraph,
    params: RankingParams | None = None,
    *,
    teleport: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    solver: str | None = None,
    dangling: str = "linear",
) -> RankingResult:
    """Compute the PageRank vector of a page graph.

    Parameters
    ----------
    graph:
        The directed page graph.
    params:
        Mixing parameter and stopping rule; paper defaults when omitted
        (``alpha=0.85``, L2 tolerance ``1e-9``).
    teleport:
        Optional personalized static score vector ``e``; uniform when
        omitted.
    x0:
        Warm-start vector — pass a previous PageRank when re-ranking a
        slightly modified graph (the spam-scenario experiments do).
    solver:
        Any solver name known to the
        :data:`~repro.linalg.registry.solver_registry` (``"power"`` —
        the paper's choice — ``"jacobi"``, ``"gauss_seidel"``, or a
        custom registration); ``None`` takes ``params.solver``.
    dangling:
        Dangling-mass strategy (power solver only; the linear solvers use
        the paper's leak-and-renormalize semantics by construction).

    Returns
    -------
    RankingResult
        L1-normalized PageRank scores plus convergence info.
    """
    graph.require_nonempty()
    params = params or RankingParams()
    return solver_registry.solve(
        transition_matrix(graph),
        params,
        solver=solver,
        label="pagerank",
        teleport=teleport,
        x0=x0,
        dangling=dangling,
    )
