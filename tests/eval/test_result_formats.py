"""Formatting/coverage tests for driver result objects and misc paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RankingParams
from repro.eval import run_fig4
from repro.eval.experiments import Fig5Result
from repro.graph import transition_matrix
from repro.ranking.power import PowerOperator


class TestFig4Formatting:
    def test_empirical_table_included(self):
        result = run_fig4(1, taus=np.array([0, 5]), empirical=True)
        text = result.format()
        assert "empirical (simulated attacks)" in text
        assert "tau=5" in text

    def test_analytic_only_omits_empirical(self):
        result = run_fig4(2, taus=np.array([0, 5]))
        assert "empirical" not in result.format()


class TestFig5Helpers:
    def test_mass_weighted_bucket(self):
        result = Fig5Result(
            dataset="x",
            n_buckets=4,
            n_spam=4,
            n_seeds=1,
            baseline_counts=np.array([4, 0, 0, 0]),
            throttled_counts=np.array([0, 0, 0, 4]),
        )
        base, throttled = result.mass_weighted_bucket()
        assert base == pytest.approx(0.0)
        assert throttled == pytest.approx(3.0)

    def test_empty_counts_do_not_divide_by_zero(self):
        result = Fig5Result(
            dataset="x",
            n_buckets=2,
            n_spam=0,
            n_seeds=0,
            baseline_counts=np.zeros(2, dtype=np.int64),
            throttled_counts=np.zeros(2, dtype=np.int64),
        )
        base, throttled = result.mass_weighted_bucket()
        assert base == 0.0 and throttled == 0.0


class TestPowerOperator:
    def test_step_conserves_mass(self, triangle_graph):
        m = transition_matrix(triangle_graph)
        op = PowerOperator(m, 0.85, np.full(3, 1 / 3))
        y = op.step(np.full(3, 1 / 3))
        assert y.sum() == pytest.approx(1.0)

    def test_n_property(self, triangle_graph):
        m = transition_matrix(triangle_graph)
        assert PowerOperator(m, 0.85, np.full(3, 1 / 3)).n == 3

    def test_rejects_dense_matrix(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            PowerOperator(np.eye(3), 0.85, np.full(3, 1 / 3))
