"""Unit tests for :mod:`repro.resilience.guards`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RankingParams, ResilienceParams
from repro.errors import (
    DivergenceError,
    NumericalError,
    SolveDeadlineError,
    StagnationError,
)
from repro.linalg.iterate import iterate_to_fixpoint
from repro.observability.metrics import get_registry, reset_registry
from repro.resilience import SolveGuard


def trips(kind: str) -> float:
    return (
        get_registry()
        .counter("repro_guard_trips_total", labelnames=("kind",))
        .labels(kind=kind)
        .value
    )


def poison(x: np.ndarray, value: float = np.nan) -> np.ndarray:
    out = 0.9 * x
    out[1] = value
    return out


def poison_at(call: int, value: float):
    """A contracting step whose ``call``-th result holds one ``value``."""
    calls = [0]

    def step(x):
        calls[0] += 1
        return poison(x, value) if calls[0] == call else 0.9 * x

    return step


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


class TestSolveGuard:
    def test_nan_iterate_trips(self):
        # A non-finite entry in an iterate always shows in its residual,
        # under every norm: the guard trips on that very iteration.
        for norm in ("l1", "l2", "linf"):
            for bad in (np.nan, np.inf, -np.inf):
                reset_registry()
                step = poison_at(3, bad)
                params = RankingParams(
                    max_iter=100, norm=norm, resilience=ResilienceParams()
                )
                with pytest.raises(NumericalError, match="non-finite") as exc:
                    iterate_to_fixpoint(step, np.ones(4), params, solver="power")
                assert exc.value.iterations == 3, (norm, bad)
                assert trips("nan") == 1

    def test_nan_residual_trips(self):
        guard = SolveGuard(ResilienceParams(), tolerance=1e-9)
        with pytest.raises(NumericalError, match="non-finite residual"):
            guard.check(1, np.ones(4), np.nan)

    def test_last_finite_attached_to_error(self):
        # The NaN trip carries the iterate *before* the poisoned one.
        seen: list[np.ndarray] = []

        def step(x):
            out = poison(x) if len(seen) == 2 else 0.5 * x + 0.1
            seen.append(out)
            return out

        params = RankingParams(max_iter=100, resilience=ResilienceParams())
        with pytest.raises(NumericalError) as exc:
            iterate_to_fixpoint(step, np.full(4, 0.25), params, solver="power")
        np.testing.assert_array_equal(exc.value.last_iterate, seen[1])
        assert exc.value.last_iterate is not seen[1]  # a copy

    def test_divergence_trips_after_window(self):
        guard = SolveGuard(
            ResilienceParams(divergence_window=3), tolerance=1e-9
        )
        x = np.ones(2)
        guard.check(1, x, 1.0)
        guard.check(2, x, 2.0)
        guard.check(3, x, 3.0)
        with pytest.raises(DivergenceError) as exc:
            guard.check(4, x, 4.0, previous=np.zeros(2))
        assert exc.value.window == 3
        np.testing.assert_array_equal(exc.value.last_iterate, x)
        assert trips("divergence") == 1

    def test_divergence_run_resets_on_improvement(self):
        guard = SolveGuard(
            ResilienceParams(divergence_window=2), tolerance=1e-9
        )
        x = np.ones(2)
        guard.check(1, x, 1.0)
        guard.check(2, x, 2.0)  # growth run = 1
        guard.check(3, x, 0.5)  # reset
        guard.check(4, x, 0.6)  # growth run = 1 again — no trip
        assert trips("divergence") == 0

    def test_stagnation_trips_on_plateau(self):
        guard = SolveGuard(
            ResilienceParams(
                divergence_window=0, stagnation_window=3, stagnation_rtol=0.01
            ),
            tolerance=1e-9,
        )
        x = np.ones(2)
        for i in range(1, 4):
            guard.check(i, x, 0.5)
        with pytest.raises(StagnationError):
            guard.check(4, x, 0.4999)
        assert trips("stagnation") == 1

    def test_stagnation_silent_below_tolerance(self):
        guard = SolveGuard(
            ResilienceParams(stagnation_window=2, stagnation_rtol=0.5),
            tolerance=1e-3,
        )
        x = np.ones(2)
        for i in range(1, 10):
            guard.check(i, x, 1e-4)  # flat but already under tolerance

    def test_deadline_trips(self):
        fake_now = [0.0]
        guard = SolveGuard(
            ResilienceParams(deadline_seconds=1.0),
            tolerance=1e-9,
            clock=lambda: fake_now[0],
        )
        x = np.ones(2)
        guard.check(1, x, 0.5)
        fake_now[0] = 2.0
        with pytest.raises(SolveDeadlineError) as exc:
            guard.check(2, x, 0.4)
        assert exc.value.deadline_seconds == 1.0
        assert exc.value.elapsed_seconds == pytest.approx(2.0)
        assert trips("deadline") == 1


class TestEngineIntegration:
    def test_diverging_step_raises_typed_error(self):
        params = RankingParams(
            max_iter=100,
            resilience=ResilienceParams(divergence_window=5),
        )
        with pytest.raises(DivergenceError):
            iterate_to_fixpoint(
                lambda x: 2.0 * x, np.ones(4), params, solver="power"
            )

    def test_nan_step_raises_with_last_iterate(self):
        calls = [0]

        def step(x):
            calls[0] += 1
            if calls[0] == 5:
                out = x.copy()
                out[0] = np.nan
                return out
            return 0.9 * x

        params = RankingParams(max_iter=100, resilience=ResilienceParams())
        with pytest.raises(NumericalError) as exc:
            iterate_to_fixpoint(step, np.ones(4), params, solver="power")
        assert exc.value.last_iterate is not None
        assert np.isfinite(exc.value.last_iterate).all()

    def test_guard_free_solve_unchanged(self):
        params = RankingParams(max_iter=100)
        x, info = iterate_to_fixpoint(
            lambda x: 0.5 * x + 0.1, np.ones(4), params, solver="power"
        )
        assert info.converged
