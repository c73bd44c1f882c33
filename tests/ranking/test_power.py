"""Unit + property tests for the power-iteration engine."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RankingParams
from repro.errors import ConfigError, ConvergenceError, GraphError
from repro.graph import PageGraph, transition_matrix
from repro.ranking import power_iteration, uniform_teleport
from repro.ranking.power import residual_norm


class TestResidualNorm:
    def test_norms(self):
        d = np.array([3.0, -4.0])
        assert residual_norm(d, "l1") == pytest.approx(7.0)
        assert residual_norm(d, "l2") == pytest.approx(5.0)
        assert residual_norm(d, "linf") == pytest.approx(4.0)

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            residual_norm(np.zeros(2), "l3")


class TestPowerIteration:
    def test_uniform_cycle(self, triangle_graph):
        """A symmetric cycle has the uniform stationary distribution."""
        result = power_iteration(transition_matrix(triangle_graph), RankingParams())
        np.testing.assert_allclose(result.scores, 1 / 3, atol=1e-8)

    def test_fixed_point_property(self, small_graph):
        """The result satisfies its own equation: x = a*M^T x + leak + (1-a)c
        up to normalization."""
        params = RankingParams()
        m = transition_matrix(small_graph)
        result = power_iteration(m, params, dangling="teleport")
        x = result.scores
        c = uniform_teleport(small_graph.n_nodes)
        leak = x[np.asarray(m.sum(axis=1)).ravel() == 0].sum()
        y = params.alpha * (m.T @ x) + params.alpha * leak * c + (1 - params.alpha) * c
        np.testing.assert_allclose(y, x, atol=1e-7)

    def test_convergence_info(self, triangle_graph):
        result = power_iteration(transition_matrix(triangle_graph), RankingParams())
        info = result.convergence
        assert info.converged
        assert info.residual < info.tolerance
        assert len(info.residual_history) == info.iterations

    def test_residual_history_monotone_tail(self, small_graph):
        result = power_iteration(transition_matrix(small_graph), RankingParams())
        hist = np.asarray(result.convergence.residual_history)
        # Power iteration on these matrices contracts geometrically; the
        # last few residuals must be decreasing.
        assert (np.diff(hist[-5:]) < 0).all()

    def test_max_iter_strict_raises(self, small_graph):
        params = RankingParams(max_iter=2, strict=True)
        with pytest.raises(ConvergenceError) as err:
            power_iteration(transition_matrix(small_graph), params)
        assert err.value.iterations == 2

    def test_max_iter_lenient_returns(self, small_graph):
        params = RankingParams(max_iter=2, strict=False)
        result = power_iteration(transition_matrix(small_graph), params)
        assert not result.convergence.converged

    def test_warm_start_converges_faster(self, small_graph):
        # Use the "teleport" dangling strategy so the iteration is truly
        # stochastic — its fixed point then IS the normalized score vector
        # and restarting from it must converge almost immediately.
        params = RankingParams()
        m = transition_matrix(small_graph)
        cold = power_iteration(m, params, dangling="teleport")
        warm = power_iteration(m, params, dangling="teleport", x0=cold.scores)
        assert warm.convergence.iterations < cold.convergence.iterations
        np.testing.assert_allclose(warm.scores, cold.scores, atol=1e-7)

    def test_personalized_teleport_shifts_mass(self, small_graph):
        params = RankingParams()
        t = np.zeros(small_graph.n_nodes)
        t[0] = 1.0
        biased = power_iteration(transition_matrix(small_graph), params, teleport=t)
        uniform = power_iteration(transition_matrix(small_graph), params)
        assert biased.score_of(0) > uniform.score_of(0)

    def test_callback_invoked(self, triangle_graph):
        seen = []
        power_iteration(
            transition_matrix(triangle_graph),
            RankingParams(),
            callback=lambda i, r: seen.append((i, r)),
        )
        assert seen and seen[0][0] == 1

    def test_rejects_non_square(self):
        with pytest.raises(GraphError):
            power_iteration(sp.csr_matrix((2, 3)), RankingParams())

    def test_rejects_bad_teleport_length(self, triangle_graph):
        with pytest.raises(GraphError):
            power_iteration(
                transition_matrix(triangle_graph),
                RankingParams(),
                teleport=np.ones(5) / 5,
            )

    def test_rejects_bad_x0_length(self, triangle_graph):
        with pytest.raises(GraphError):
            power_iteration(
                transition_matrix(triangle_graph), RankingParams(), x0=np.ones(7)
            )


class TestDanglingStrategies:
    def test_self_strategy_keeps_mass(self):
        g = PageGraph.from_edges([0], [1], 2)  # node 1 dangling
        result = power_iteration(
            transition_matrix(g), RankingParams(), dangling="self"
        )
        # With a self-loop, node 1 accumulates; with leak it would not.
        assert result.score_of(1) > result.score_of(0)

    def test_teleport_strategy_stochasticizes(self):
        g = PageGraph.from_edges([0], [1], 2)
        result = power_iteration(
            transition_matrix(g), RankingParams(), dangling="teleport"
        )
        assert result.convergence.converged

    def test_strategies_differ(self):
        g = PageGraph.from_edges([0, 1, 2], [1, 2, 0], 4)  # node 3 dangling
        params = RankingParams()
        m = transition_matrix(g)
        rs = {
            s: power_iteration(m, params, dangling=s).scores
            for s in ("linear", "teleport", "self")
        }
        assert not np.allclose(rs["linear"], rs["self"])

    def test_unknown_strategy_rejected(self, triangle_graph):
        with pytest.raises(ConfigError):
            power_iteration(
                transition_matrix(triangle_graph),
                RankingParams(),
                dangling="bogus",
            )

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scores_are_distribution(self, seed):
        """Property: output is always a probability distribution."""
        gen = np.random.default_rng(seed)
        n = int(gen.integers(2, 40))
        g = PageGraph.from_edges(
            gen.integers(0, n, 3 * n), gen.integers(0, n, 3 * n), n
        )
        result = power_iteration(transition_matrix(g), RankingParams())
        assert result.scores.min() >= 0
        assert result.scores.sum() == pytest.approx(1.0)
