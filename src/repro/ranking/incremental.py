"""Incremental rank maintenance for evolving webs.

The Fig. 6/7 sweeps re-rank a graph after every injected attack; doing
that cold is wasteful because the perturbation is tiny.
:class:`IncrementalPageRank` and :class:`IncrementalSourceRank` make the
warm-start pattern a first-class API: they hold the last converged vector
and, on each graph update, re-solve from it (padding new pages/sources
with teleport-level mass).  The fixed point is identical to a cold solve
— only the iteration count changes — which the tests assert exactly.

Both classes are thread-safe: updates are serialized behind an internal
lock (a warm start is inherently sequential — each solve consumes the
previous result), and ``current``/``reset`` take the same lock so a
reader can never observe a torn ``_last``.  This is what lets the
serving layer run its background updater loop while query threads read
the ranker's state.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from ..config import RankingParams
from ..errors import GraphError, ThrottleError
from ..graph.pagegraph import PageGraph
from ..logging_utils import get_logger
from ..observability.tracing import span
from ..sources.assignment import SourceAssignment
from ..sources.sourcegraph import SourceGraph
from ..throttle.vector import ThrottleVector
from .base import RankingResult
from .pagerank import pagerank
from .srsourcerank import spam_resilient_sourcerank

__all__ = ["IncrementalPageRank", "IncrementalSourceRank"]

_logger = get_logger(__name__)


def _padded_warm_start(previous: RankingResult | None, n: int) -> np.ndarray | None:
    """Extend the previous score vector to ``n`` entries.

    New entries start at the uniform level; the vector is renormalized so
    the iteration starts from a proper distribution.
    """
    if previous is None:
        return None
    if previous.n > n:
        raise GraphError(
            f"graph shrank from {previous.n} to {n} items; incremental "
            "recompute only supports growth and in-place edge changes"
        )
    x0 = np.full(n, 1.0 / n)
    x0[: previous.n] = previous.scores
    return x0 / x0.sum()


class IncrementalPageRank:
    """PageRank that re-solves warm after each graph update.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graph import PageGraph, add_edges
    >>> inc = IncrementalPageRank()
    >>> g = PageGraph.from_edges([0, 1, 2], [1, 2, 0], 3)
    >>> r1 = inc.update(g)
    >>> r2 = inc.update(add_edges(g, [3], [0]))   # one new page
    >>> r2.n
    4
    """

    def __init__(self, params: RankingParams | None = None, **solve_kwargs: object) -> None:
        self.params = params or RankingParams()
        self.solve_kwargs = solve_kwargs
        self._last: RankingResult | None = None
        self._lock = threading.Lock()

    @property
    def current(self) -> RankingResult | None:
        """The most recent ranking (None before the first update)."""
        with self._lock:
            return self._last

    def seed(self, result: RankingResult) -> None:
        """Install a previously computed ranking as the warm-start state.

        The serving layer uses this to resume from a recovered snapshot:
        the next update warm-starts from the snapshot's vector instead of
        solving cold.
        """
        with self._lock:
            self._last = result

    def update(self, graph: PageGraph) -> RankingResult:
        """Re-rank ``graph``, warm-starting from the previous solution.

        Updates are serialized: a concurrent caller blocks until the
        in-flight solve finishes and then warm-starts from its result.
        """
        with self._lock:
            x0 = _padded_warm_start(self._last, graph.n_nodes)
            with span("incremental:pagerank", warm=x0 is not None, n=graph.n_nodes):
                result = pagerank(graph, self.params, x0=x0, **self.solve_kwargs)
            _logger.debug(
                "incremental pagerank (%s start): %s",
                "warm" if x0 is not None else "cold",
                result.convergence.convergence_summary(),
            )
            self._last = result
            return result

    def reset(self) -> None:
        """Drop the warm-start state (next update solves cold)."""
        with self._lock:
            self._last = None


class IncrementalSourceRank:
    """Spam-Resilient SourceRank that re-solves warm after web updates.

    ``update`` takes the *page-level* web; the source graph is rebuilt
    (quotienting is cheap next to the eigensolve) and the previous source
    vector warm-starts the walk.  The throttle vector is padded with
    κ = 0 for sources created since it was assigned — matching the
    evaluation harness's worst-case convention for attack-created
    sources.
    """

    def __init__(
        self,
        params: RankingParams | None = None,
        *,
        weighting: str = "consensus",
        full_throttle: str = "self",
        **solve_kwargs: object,
    ) -> None:
        self.params = params or RankingParams()
        self.weighting = weighting
        self.full_throttle = full_throttle
        self.solve_kwargs = solve_kwargs
        self._last: RankingResult | None = None
        self._lock = threading.Lock()

    @property
    def current(self) -> RankingResult | None:
        """The most recent ranking (None before the first update)."""
        with self._lock:
            return self._last

    def seed(self, result: RankingResult) -> None:
        """Install a previously computed ranking as the warm-start state.

        The serving layer uses this to resume from a recovered snapshot:
        the next update warm-starts from the snapshot's vector instead of
        solving cold.
        """
        with self._lock:
            self._last = result

    def update(
        self,
        graph: PageGraph,
        assignment: SourceAssignment,
        kappa: ThrottleVector | None = None,
        *,
        operator_wrap: Callable | None = None,
        **solve_kwargs: object,
    ) -> RankingResult:
        """Re-rank the web, warm-starting from the previous solution.

        Parameters
        ----------
        graph, assignment, kappa:
            The evolved page web, its page→source map and (optionally)
            the throttle vector (padded with κ = 0 for new sources).
        operator_wrap:
            Hook receiving the freshly built base
            :class:`~repro.linalg.operator.CsrOperator` and returning the
            operator the solve should actually walk.  The fault-injection
            harness uses it to interpose a
            :class:`~repro.resilience.FaultyOperator`; production code
            leaves it ``None``.
        solve_kwargs:
            Extra keywords (``callback``, ``solver``, ...) forwarded to
            :func:`~repro.ranking.srsourcerank.spam_resilient_sourcerank`
            on top of the constructor-level ``solve_kwargs``.

        Updates are serialized behind the internal lock; concurrent
        callers queue up rather than racing on the warm-start state.
        """
        with self._lock:
            return self._update_locked(
                graph, assignment, kappa, operator_wrap, solve_kwargs
            )

    def _update_locked(
        self,
        graph: PageGraph,
        assignment: SourceAssignment,
        kappa: ThrottleVector | None,
        operator_wrap: Callable | None,
        solve_kwargs: dict,
    ) -> RankingResult:
        source_graph = SourceGraph.from_page_graph(
            graph, assignment, weighting=self.weighting
        )
        n = source_graph.n_sources
        if kappa is not None and kappa.n > n:
            raise ThrottleError(
                f"throttle vector covers {kappa.n} sources but the source "
                f"graph has only {n}; a κ assigned on a larger web cannot "
                "be applied to a smaller one — recompute κ for this web"
            )
        if kappa is not None and kappa.n < n:
            padded = np.zeros(n)
            padded[: kappa.n] = kappa.kappa
            kappa = ThrottleVector(padded)
        x0 = _padded_warm_start(self._last, n)
        kwargs = {**self.solve_kwargs, **solve_kwargs}
        if operator_wrap is not None:
            from ..linalg.operator import CsrOperator

            kwargs["operator"] = operator_wrap(CsrOperator(source_graph.matrix))
        with span("incremental:sourcerank", warm=x0 is not None, n=n):
            result = spam_resilient_sourcerank(
                source_graph,
                kappa,
                self.params,
                x0=x0,
                full_throttle=self.full_throttle,
                **kwargs,
            )
        _logger.debug(
            "incremental sourcerank (%s start): %s",
            "warm" if x0 is not None else "cold",
            result.convergence.convergence_summary(),
        )
        self._last = result
        return result

    def reset(self) -> None:
        """Drop the warm-start state (next update solves cold)."""
        with self._lock:
            self._last = None
