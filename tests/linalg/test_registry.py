"""Solver-registry dispatch, registration, and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RankingParams
from repro.errors import ConfigError
from repro.linalg import (
    BUILTIN_SOLVERS,
    available_solvers,
    get_solver,
    register_solver,
    solver_registry,
)
from repro.ranking.gauss_seidel import gauss_seidel_solve
from repro.ranking.jacobi import jacobi_solve
from repro.ranking.power import power_iteration


class TestBuiltins:
    def test_builtins_resolve_to_ranking_solvers(self):
        assert get_solver("power") is power_iteration
        assert get_solver("jacobi") is jacobi_solve
        assert get_solver("gauss_seidel") is gauss_seidel_solve

    def test_names_include_builtins(self):
        names = available_solvers()
        assert set(BUILTIN_SOLVERS) <= set(names)
        assert names == tuple(sorted(names))

    def test_unknown_solver_raises(self):
        with pytest.raises(ConfigError, match="unknown solver"):
            get_solver("conjugate_gradient")

    def test_contains(self):
        assert "power" in solver_registry
        assert "nope" not in solver_registry


class TestRegistration:
    def test_register_and_dispatch_custom_solver(self, small_source_graph):
        calls = []

        def fake_solver(operand, params, *, label="", **kwargs):
            calls.append(label)
            return power_iteration(operand, params, label=label, **kwargs)

        register_solver("fake", fake_solver)
        params = RankingParams(solver="fake")
        result = solver_registry.solve(
            small_source_graph.matrix, params, label="via-params"
        )
        assert calls == ["via-params"]
        assert result.scores.sum() == pytest.approx(1.0)

    def test_duplicate_registration_raises(self):
        register_solver("dupe", lambda *a, **k: None)
        with pytest.raises(ConfigError, match="already registered"):
            register_solver("dupe", lambda *a, **k: None)
        register_solver("dupe", lambda *a, **k: 1, overwrite=True)
        assert get_solver("dupe")() == 1

    def test_decorator_form(self):
        @register_solver("decorated")
        def my_solver(operand, params, **kwargs):
            return "ran"

        assert get_solver("decorated") is my_solver


class TestParamsValidation:
    def test_params_reject_unknown_solver(self):
        with pytest.raises(ConfigError, match="unknown solver"):
            RankingParams(solver="magic")

    def test_params_accept_builtins(self):
        for name in BUILTIN_SOLVERS:
            assert RankingParams(solver=name).solver == name

    def test_solve_explicit_solver_overrides_params(self, small_source_graph):
        params = RankingParams(solver="jacobi", tolerance=1e-10)
        via_power = solver_registry.solve(
            small_source_graph.matrix, params, solver="power"
        )
        via_params = solver_registry.solve(small_source_graph.matrix, params)
        np.testing.assert_allclose(
            via_power.scores, via_params.scores, atol=1e-8
        )
