"""TrustRank (Gyöngyi, Garcia-Molina & Pedersen [22]) — the Section 7
comparator.

"Rather than identify spam pages outright, the TrustRank approach
propagates trust from a seed set of trusted Web pages.  Such a technique
is still vulnerable to honeypot and hijacking vulnerabilities, in which
high-value trusted pages may be especially targeted."

TrustRank is a personalized PageRank whose teleportation vector is
uniform over a hand-picked *trusted* seed set:

.. math::

    t = \\alpha M^{T} t + (1 - \\alpha) d_{\\text{trust}}

``bench_comparators.py`` demonstrates the paper's claim: a honeypot that
captures links from trusted pages inherits trust directly, while
SR-SourceRank's consensus weighting + throttling blunt the same attack.
"""

from __future__ import annotations

import numpy as np

from ..config import RankingParams
from ..errors import ConfigError
from ..graph.matrix import transition_matrix
from ..graph.pagegraph import PageGraph
from ..linalg.registry import solver_registry
from .base import RankingResult
from .power import power_iteration
from .teleport import seeded_teleport

__all__ = ["trustrank", "select_trust_seeds"]


def trustrank(
    graph: PageGraph,
    trusted_seeds: np.ndarray | list[int],
    params: RankingParams | None = None,
    *,
    dangling: str = "linear",
    solver: str | None = None,
) -> RankingResult:
    """Compute TrustRank over a page graph from a trusted seed set.

    Parameters
    ----------
    graph:
        The directed page graph.
    trusted_seeds:
        Page ids of the hand-verified good pages.
    params:
        Mixing parameter and stopping rule (the TrustRank paper also uses
        ``alpha = 0.85``).
    dangling:
        Dangling-mass strategy, as in :func:`repro.ranking.pagerank.pagerank`.
    solver:
        Registry solver name, as in :func:`repro.ranking.pagerank.pagerank`.

    Returns
    -------
    RankingResult
        L1-normalized trust scores; unreachable-from-seeds pages score 0
        mass beyond teleportation.
    """
    graph.require_nonempty()
    params = params or RankingParams()
    seeds = np.unique(np.asarray(trusted_seeds, dtype=np.int64))
    if seeds.size == 0:
        raise ConfigError("trustrank requires a non-empty trusted seed set")
    if seeds[0] < 0 or seeds[-1] >= graph.n_nodes:
        raise ConfigError(
            f"seed ids must lie in [0, {graph.n_nodes}), got range "
            f"[{seeds[0]}, {seeds[-1]}]"
        )
    d = seeded_teleport(graph.n_nodes, seeds)
    return solver_registry.solve(
        transition_matrix(graph),
        params,
        solver=solver,
        label="trustrank",
        teleport=d,
        dangling=dangling,
    )


def select_trust_seeds(
    graph: PageGraph,
    n_seeds: int,
    *,
    exclude: np.ndarray | list[int] | None = None,
    params: RankingParams | None = None,
) -> np.ndarray:
    """Pick trust seeds by inverse PageRank, per the TrustRank paper.

    Gyöngyi et al. select the pages whose out-links reach the most of the
    Web — the top pages of an *inverse* PageRank — for human inspection.
    ``exclude`` models the human inspection step: known-bad candidates
    (e.g. planted spam pages in the benches) are skipped.
    """
    graph.require_nonempty()
    n_seeds = int(n_seeds)
    if not 1 <= n_seeds <= graph.n_nodes:
        raise ConfigError(
            f"n_seeds must lie in [1, {graph.n_nodes}], got {n_seeds}"
        )
    from ..graph.transforms import reverse_graph

    params = params or RankingParams()
    inv = power_iteration(
        transition_matrix(reverse_graph(graph)),
        params,
        dangling="teleport",
        label="inverse-pagerank",
    )
    order = inv.order()
    if exclude is not None:
        bad = np.asarray(exclude, dtype=np.int64)
        order = order[~np.isin(order, bad)]
    if order.size < n_seeds:
        raise ConfigError(
            f"only {order.size} eligible seed candidates, need {n_seeds}"
        )
    return np.sort(order[:n_seeds])
