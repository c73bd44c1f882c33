"""The shared fixed-point engine: convergence contract and telemetry hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RankingParams
from repro.errors import ConfigError, ConvergenceError
from repro.linalg import ConvergenceInfo, iterate_to_fixpoint, residual_norm


def halve_toward(target):
    """A contraction with fixed point ``target`` (rate 1/2)."""
    return lambda x: 0.5 * (x + target)


class TestIterateToFixpoint:
    def test_converges_to_fixed_point(self):
        target = np.array([1.0, 2.0, 3.0])
        params = RankingParams(tolerance=1e-12, max_iter=200)
        x, info = iterate_to_fixpoint(
            halve_toward(target), np.zeros(3), params, solver="power"
        )
        np.testing.assert_allclose(x, target, atol=1e-10)
        assert info.converged
        assert info.iterations == len(info.residual_history)
        assert info.residual < 1e-12

    def test_residual_history_is_monotone_for_contraction(self):
        params = RankingParams(tolerance=1e-10, max_iter=200)
        _, info = iterate_to_fixpoint(
            halve_toward(np.ones(4)), np.zeros(4), params, solver="power"
        )
        hist = np.array(info.residual_history)
        assert (np.diff(hist) <= 0).all()

    def test_strict_raises_on_max_iter(self):
        params = RankingParams(tolerance=1e-15, max_iter=3, strict=True)
        with pytest.raises(ConvergenceError):
            iterate_to_fixpoint(
                halve_toward(np.ones(2)), np.zeros(2), params, solver="power"
            )

    def test_lenient_returns_flagged(self):
        params = RankingParams(tolerance=1e-15, max_iter=3, strict=False)
        x, info = iterate_to_fixpoint(
            halve_toward(np.ones(2)), np.zeros(2), params, solver="power"
        )
        assert not info.converged
        assert info.iterations == 3

    def test_callback_sees_every_iteration(self):
        seen = []
        params = RankingParams(tolerance=1e-9, max_iter=100)
        iterate_to_fixpoint(
            halve_toward(np.ones(2)),
            np.zeros(2),
            params,
            solver="power",
            callback=lambda i, r: seen.append((i, r)),
        )
        assert [i for i, _ in seen] == list(range(1, len(seen) + 1))
        assert seen[-1][1] < 1e-9

    def test_progress_hooks_fire(self):
        from repro.observability import Tracer

        tracer = Tracer(profile=True)
        params = RankingParams(tolerance=1e-9, max_iter=100)
        with tracer.activate():
            _, info = iterate_to_fixpoint(
                halve_toward(np.ones(2)),
                np.zeros(2),
                params,
                solver="power",
                label="engine-test",
                kernel="scipy",
            )
        (run,) = tracer.roots
        assert run.name == "solve:engine-test"
        assert run.meta["kernel"] == "scipy"
        assert run.meta["iterations"] == info.iterations
        assert len(run.meta["step_seconds"]) == info.iterations
        assert [e["kind"] for e in tracer.events()] == ["solve_start", "solve_end"]

    def test_kernel_none_stays_none_in_telemetry(self):
        from repro.observability import Tracer

        tracer = Tracer()
        params = RankingParams(tolerance=1e-9, max_iter=100)
        with tracer.activate():
            iterate_to_fixpoint(
                halve_toward(np.ones(2)), np.zeros(2), params, solver="jacobi"
            )
        assert "kernel" not in tracer.roots[0].meta


class TestResidualNorm:
    def test_norms(self):
        d = np.array([3.0, -4.0])
        assert residual_norm(d, "l1") == pytest.approx(7.0)
        assert residual_norm(d, "l2") == pytest.approx(5.0)
        assert residual_norm(d, "linf") == pytest.approx(4.0)

    def test_unknown_norm(self):
        with pytest.raises(ConfigError):
            residual_norm(np.ones(2), "l3")


class TestConvergenceInfoLocation:
    def test_reexported_from_ranking_base(self):
        from repro.ranking.base import ConvergenceInfo as FromBase

        assert FromBase is ConvergenceInfo
