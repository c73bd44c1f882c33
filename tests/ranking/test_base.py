"""Unit tests for :mod:`repro.ranking.base`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError, NodeIndexError
from repro.ranking.base import ConvergenceInfo, RankingResult

_INFO = ConvergenceInfo(converged=True, iterations=3, residual=1e-12, tolerance=1e-9)


class TestRankingResult:
    def test_l1_normalization(self):
        r = RankingResult(np.array([1.0, 3.0]), _INFO)
        np.testing.assert_allclose(r.scores, [0.25, 0.75])

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            RankingResult(np.array([]), _INFO)

    def test_rejects_nan(self):
        with pytest.raises(GraphError):
            RankingResult(np.array([1.0, np.nan]), _INFO)

    def test_rejects_zero_mass(self):
        with pytest.raises(GraphError):
            RankingResult(np.zeros(3), _INFO)

    def test_scores_read_only(self):
        r = RankingResult(np.array([1.0, 1.0]), _INFO)
        with pytest.raises(ValueError):
            r.scores[0] = 5.0

    def test_order_best_first(self):
        r = RankingResult(np.array([0.1, 0.5, 0.4]), _INFO)
        np.testing.assert_array_equal(r.order(), [1, 2, 0])

    def test_order_ties_by_id(self):
        r = RankingResult(np.array([0.5, 0.5, 0.1]), _INFO)
        np.testing.assert_array_equal(r.order(), [0, 1, 2])

    def test_ranks_inverse_of_order(self):
        r = RankingResult(np.array([0.1, 0.5, 0.4]), _INFO)
        ranks = r.ranks()
        assert ranks[1] == 0  # best item
        assert ranks[0] == 2  # worst item

    def test_percentiles_orientation(self):
        r = RankingResult(np.array([0.1, 0.5, 0.4]), _INFO)
        p = r.percentiles()
        assert p[1] == pytest.approx(100.0)
        assert p[0] == pytest.approx(0.0)

    def test_percentiles_tie_averaging(self):
        r = RankingResult(np.array([0.5, 0.5]), _INFO)
        np.testing.assert_allclose(r.percentiles(), [50.0, 50.0])

    def test_percentiles_cached_read_only(self):
        r = RankingResult(np.array([0.1, 0.5, 0.4]), _INFO)
        table = r.percentiles()
        assert r.percentiles() is table
        assert not table.flags.writeable

    def test_top(self):
        r = RankingResult(np.array([0.1, 0.5, 0.4]), _INFO)
        np.testing.assert_array_equal(r.top(2), [1, 2])

    def test_top_range_check(self):
        r = RankingResult(np.array([1.0]), _INFO)
        with pytest.raises(GraphError):
            r.top(5)

    def test_score_of(self):
        r = RankingResult(np.array([1.0, 3.0]), _INFO)
        assert r.score_of(1) == pytest.approx(0.75)

    def test_score_of_rejects_negative_id(self):
        # Regression: numpy indexing wrapped -1 around to the last item.
        r = RankingResult(np.array([1.0, 3.0]), _INFO)
        with pytest.raises(NodeIndexError, match="out of range"):
            r.score_of(-1)

    def test_score_of_rejects_id_past_end(self):
        r = RankingResult(np.array([1.0, 3.0]), _INFO)
        with pytest.raises(NodeIndexError):
            r.score_of(2)

    def test_score_of_error_carries_node_and_size(self):
        r = RankingResult(np.array([1.0, 3.0]), _INFO)
        with pytest.raises(NodeIndexError) as err:
            r.score_of(-5)
        assert err.value.node == -5
        assert err.value.n_nodes == 2

    def test_percentile_of_matches_percentiles(self):
        r = RankingResult(np.array([0.1, 0.5, 0.4]), _INFO)
        for node in range(r.n):
            assert r.percentile_of(node) == pytest.approx(r.percentiles()[node])

    def test_percentile_of_rejects_out_of_range(self):
        r = RankingResult(np.array([0.1, 0.5, 0.4]), _INFO)
        with pytest.raises(NodeIndexError):
            r.percentile_of(-1)
        with pytest.raises(NodeIndexError):
            r.percentile_of(3)

    def test_repr_mentions_convergence(self):
        r = RankingResult(np.array([1.0]), _INFO, label="x")
        assert "iterations=3" in repr(r)
