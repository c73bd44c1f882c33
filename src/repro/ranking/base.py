"""Result types shared by every ranking computation.

A :class:`RankingResult` wraps the score vector together with the
convergence record and exposes the rank-oriented views the evaluation
harness needs (ordering, dense ranks, percentiles).

:class:`ConvergenceInfo` now lives with the shared iteration engine in
:mod:`repro.linalg.iterate`; it is re-exported here under its historical
name.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError, NodeIndexError
from ..linalg.iterate import ConvergenceInfo

__all__ = ["ConvergenceInfo", "RankingResult", "check_scores"]


def check_scores(scores: np.ndarray) -> np.ndarray:
    """Validate and canonicalize a score vector (1-D, finite, float64)."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if scores.size == 0:
        raise GraphError("score vector must be non-empty")
    if not np.isfinite(scores).all():
        raise GraphError("score vector contains non-finite values")
    return scores


class RankingResult:
    """Scores plus convergence info plus rank-order helpers.

    Scores are stored L1-normalized (they are probability distributions —
    the paper normalizes ``σ/||σ||`` after the linear solve).

    ``provenance`` is ``None`` for a plain single-solver solve; a
    :class:`~repro.resilience.fallback.FallbackChain` sets it to the
    tuple of :class:`~repro.resilience.fallback.SolveAttempt` records
    describing every solver tried before this result was produced.
    """

    __slots__ = ("_scores", "_percentiles", "convergence", "label", "provenance")

    def __init__(
        self,
        scores: np.ndarray,
        convergence: ConvergenceInfo,
        label: str = "",
        provenance: tuple | None = None,
    ) -> None:
        scores = check_scores(scores)
        total = scores.sum()
        if total <= 0:
            raise GraphError("score vector must have positive mass")
        scores = scores / total
        scores.setflags(write=False)
        self._scores = scores
        self._percentiles: np.ndarray | None = None
        self.convergence = convergence
        self.label = label
        self.provenance = provenance

    @property
    def scores(self) -> np.ndarray:
        """Read-only L1-normalized score vector."""
        return self._scores

    @property
    def n(self) -> int:
        """Number of ranked items."""
        return int(self._scores.size)

    def _check_node(self, node: int) -> int:
        """Validate an item id, refusing numpy's negative wraparound."""
        node = int(node)
        if not 0 <= node < self.n:
            raise NodeIndexError(node, self.n)
        return node

    def score_of(self, node: int) -> float:
        """Score of one item. Raises :class:`NodeIndexError` outside [0, n)."""
        return float(self._scores[self._check_node(node)])

    def percentile_of(self, node: int) -> float:
        """Percentile of one item (see :meth:`percentiles`).

        Raises :class:`NodeIndexError` outside [0, n) instead of letting a
        negative id wrap around to the tail of the vector.
        """
        return float(self.percentiles()[self._check_node(node)])

    def order(self) -> np.ndarray:
        """Item ids sorted by decreasing score (ties broken by id).

        ``order()[0]`` is the top-ranked item.
        """
        # argsort ascending on (-score, id): stable sort over negated scores.
        return np.argsort(-self._scores, kind="stable").astype(np.int64)

    def ranks(self) -> np.ndarray:
        """Dense 0-based rank per item (0 = best)."""
        order = self.order()
        ranks = np.empty(self.n, dtype=np.int64)
        ranks[order] = np.arange(self.n, dtype=np.int64)
        return ranks

    def percentiles(self) -> np.ndarray:
        """Read-only percentile per item, 100 = best, averaged over ties.

        Matches the paper's "ranking percentile" metric: an item in the
        19th percentile is worse than 81 % of items.  Built on the first
        call and cached, since the scores never change.
        """
        if self._percentiles is not None:
            return self._percentiles
        scores = self._scores
        n = self.n
        # Fraction of items strictly worse plus half the ties.
        sorted_scores = np.sort(scores)
        lo = np.searchsorted(sorted_scores, scores, side="left")
        hi = np.searchsorted(sorted_scores, scores, side="right")
        worse = lo.astype(np.float64)
        ties = (hi - lo - 1).astype(np.float64)
        table = 100.0 * (worse + 0.5 * ties) / max(n - 1, 1)
        table.setflags(write=False)
        self._percentiles = table
        return table

    def top(self, k: int) -> np.ndarray:
        """Ids of the ``k`` highest-scored items, best first."""
        k = int(k)
        if not 0 <= k <= self.n:
            raise GraphError(f"k must be in [0, {self.n}], got {k}")
        return self.order()[:k]

    def convergence_summary(self, *, curve_points: int = 5) -> str:
        """Delegate to :meth:`ConvergenceInfo.convergence_summary`."""
        return self.convergence.convergence_summary(curve_points=curve_points)

    def __repr__(self) -> str:
        conv = self.convergence
        state = "converged" if conv.converged else "NOT converged"
        return (
            f"RankingResult(n={self.n}, label={self.label!r}, "
            f"iterations={conv.iterations}, residual={conv.residual:.2e}, "
            f"{state})"
        )
