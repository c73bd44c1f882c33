"""Baseline SourceRank: PageRank-style walk on the source graph.

This is the "no throttling information" baseline of Fig. 5 — a teleporting
random walk over the (consensus- or uniform-weighted) source transition
matrix ``T'``, with no influence-throttle transform applied.
"""

from __future__ import annotations

import numpy as np

from ..config import RankingParams
from ..linalg.operator import TransitionOperator
from ..linalg.registry import solver_registry
from ..sources.sourcegraph import SourceGraph
from .base import RankingResult

__all__ = ["sourcerank"]


def sourcerank(
    source_graph: SourceGraph,
    params: RankingParams | None = None,
    *,
    teleport: np.ndarray | None = None,
    x0: np.ndarray | None = None,
    solver: str | None = None,
    operator: TransitionOperator | None = None,
) -> RankingResult:
    """Compute the baseline (unthrottled) SourceRank vector.

    Parameters mirror :func:`repro.ranking.pagerank.pagerank`, operating on
    a :class:`~repro.sources.sourcegraph.SourceGraph` whose matrix is
    already row-stochastic (so there is no dangling mass by construction).
    ``operator`` optionally supplies a prebuilt
    :class:`~repro.linalg.operator.TransitionOperator` over the source
    matrix so repeated solves (the pipeline's baseline comparison, κ-sweeps)
    reuse one transposed CSR.
    """
    params = params or RankingParams()
    return solver_registry.solve(
        source_graph.matrix if operator is None else operator,
        params,
        solver=solver,
        label="sourcerank",
        teleport=teleport,
        x0=x0,
    )
