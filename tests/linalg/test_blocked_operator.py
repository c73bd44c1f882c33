"""Tests for the out-of-core :class:`~repro.linalg.BlockedOperator`."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConfigError, GraphError
from repro.linalg import BlockedOperator, CsrOperator, ThrottledOperator
from repro.linalg.registry import solve
from repro.config import RankingParams
from repro.throttle.transform import throttle_transform
from repro.webgraph.store import ShardedGraphStore


def _stochastic(n: int, density: float, seed: int) -> sp.csr_matrix:
    m = sp.random(n, n, density=density, random_state=seed, format="csr")
    sums = np.asarray(m.sum(axis=1)).ravel()
    scale = np.where(sums > 0, 1.0 / np.where(sums > 0, sums, 1.0), 0.0)
    return (sp.diags(scale) @ m).tocsr()


@pytest.fixture(scope="module")
def matrix() -> sp.csr_matrix:
    return _stochastic(120, 0.04, seed=13)


@pytest.fixture()
def store(matrix, tmp_path) -> ShardedGraphStore:
    return ShardedGraphStore.from_matrix(matrix, tmp_path / "store", block_size=32)


class TestBlockedMatvec:
    def test_matches_transpose_matvec(self, matrix, store, rng):
        x = rng.random(matrix.shape[0])
        with BlockedOperator(store) as op:
            np.testing.assert_allclose(op.rmatvec(x), matrix.T @ x, atol=1e-12)

    def test_tiny_cache_still_exact(self, matrix, store, rng):
        x = rng.random(matrix.shape[0])
        with BlockedOperator(store, cache_blocks=1) as op:
            np.testing.assert_allclose(op.rmatvec(x), matrix.T @ x, atol=1e-12)
            assert op.cached_blocks <= 1

    def test_cache_stays_bounded(self, store, rng):
        with BlockedOperator(store, cache_blocks=2) as op:
            assert store.n_blocks > 2
            for _ in range(3):
                op.rmatvec(rng.random(op.n))
            assert op.cached_blocks <= 2

    def test_open_by_path(self, matrix, store, rng):
        x = rng.random(matrix.shape[0])
        with BlockedOperator(store.directory) as op:
            np.testing.assert_allclose(op.rmatvec(x), matrix.T @ x, atol=1e-12)

    def test_metadata(self, matrix, store):
        with BlockedOperator(store) as op:
            assert op.n == matrix.shape[0]
            assert op.kernel == "blocked"
            sums = np.asarray(matrix.sum(axis=1)).ravel()
            np.testing.assert_array_equal(op.dangling_mask, sums <= 1e-12)
            np.testing.assert_allclose(op.row_sums(), sums, atol=1e-12)
            np.testing.assert_allclose(
                op.diagonal(), matrix.diagonal(), atol=1e-12
            )

    def test_materialize_matches(self, matrix, store):
        with BlockedOperator(store) as op:
            assert (op.materialize() != matrix).nnz == 0

    def test_closed_operator_rejects_calls(self, store):
        op = BlockedOperator(store)
        op.close()
        with pytest.raises(GraphError, match="closed"):
            op.rmatvec(np.zeros(op.n))

    def test_rejects_bad_vector(self, store):
        with BlockedOperator(store) as op:
            with pytest.raises(GraphError):
                op.rmatvec(np.zeros(7))

    def test_rejects_non_store(self):
        with pytest.raises(GraphError, match="ShardedGraphStore"):
            BlockedOperator(sp.eye(4, format="csr"))

    def test_rejects_bad_config(self, store):
        with pytest.raises(ConfigError):
            BlockedOperator(store, cache_blocks=0)


class TestThrottledComposition:
    @pytest.mark.parametrize("full_throttle", ["self", "dangling"])
    def test_matches_materialized_transform(
        self, matrix, store, rng, full_throttle
    ):
        n = matrix.shape[0]
        kappa = np.zeros(n)
        kappa[::7] = 1.0
        kappa[3::11] = 0.5
        explicit = throttle_transform(matrix, kappa, full_throttle=full_throttle)
        x = rng.random(n)
        with BlockedOperator(store, cache_blocks=2) as base:
            throttled = ThrottledOperator(base, kappa, full_throttle=full_throttle)
            np.testing.assert_allclose(
                throttled.rmatvec(x), explicit.T @ x, atol=1e-12
            )

    def test_solve_matches_in_memory_path(self, matrix, store):
        n = matrix.shape[0]
        kappa = np.zeros(n)
        kappa[::9] = 0.7
        params = RankingParams(tolerance=1e-12, max_iter=2000)
        with BlockedOperator(store, cache_blocks=2) as base:
            throttled = ThrottledOperator(base, kappa, full_throttle="dangling")
            blocked = solve(throttled, params, solver="power")
        reference_op = ThrottledOperator(
            CsrOperator(matrix), kappa, full_throttle="dangling"
        )
        reference = solve(reference_op, params, solver="power")
        np.testing.assert_allclose(blocked.scores, reference.scores, atol=1e-9)
