"""Pipeline entry points over the sharded graph store."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.config import GraphStoreParams, RankingParams
from repro.core import SpamResilientPipeline, operator_from_store
from repro.errors import ConfigError
from repro.linalg import CsrOperator, ThrottledOperator
from repro.linalg.registry import solve
from repro.webgraph.store import ShardedGraphStore


def _stochastic(n: int, density: float, seed: int) -> sp.csr_matrix:
    m = sp.random(n, n, density=density, random_state=seed, format="csr")
    sums = np.asarray(m.sum(axis=1)).ravel()
    scale = np.where(sums > 0, 1.0 / np.where(sums > 0, sums, 1.0), 0.0)
    return (sp.diags(scale) @ m).tocsr()


@pytest.fixture(scope="module")
def matrix() -> sp.csr_matrix:
    return _stochastic(80, 0.06, seed=23)


@pytest.fixture()
def store(matrix, tmp_path) -> ShardedGraphStore:
    return ShardedGraphStore.from_matrix(matrix, tmp_path / "store", block_size=32)


class TestOperatorFromStore:
    def test_defaults(self, store):
        with operator_from_store(store) as op:
            assert op.kernel == "blocked"
            assert op.cache_blocks == GraphStoreParams().cache_blocks

    def test_params_respected(self, store):
        params = GraphStoreParams(cache_blocks=2)
        with operator_from_store(store, params) as op:
            assert op.cache_blocks == 2

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            GraphStoreParams(cache_blocks=0)
        assert GraphStoreParams().with_(cache_blocks=2).cache_blocks == 2


class TestRankStore:
    def test_matches_in_memory_solve(self, matrix, store):
        n = matrix.shape[0]
        kappa = np.zeros(n)
        nonzero = np.asarray(matrix.sum(axis=1)).ravel() > 0
        kappa[nonzero & (np.arange(n) % 7 == 0)] = 0.8
        ranking = RankingParams(tolerance=1e-12, max_iter=2000)
        with SpamResilientPipeline(ranking=ranking) as pipe:
            result = pipe.rank_store(store, kappa=kappa)

        reference_op = ThrottledOperator(
            CsrOperator(matrix), kappa, full_throttle="dangling"
        )
        reference = solve(reference_op, ranking, solver="power")
        np.testing.assert_allclose(result.scores, reference.scores, atol=1e-9)

    def test_none_kappa_is_baseline(self, matrix, store):
        ranking = RankingParams(tolerance=1e-12, max_iter=2000)
        with SpamResilientPipeline(ranking=ranking) as pipe:
            result = pipe.rank_store(store)

        reference = solve(CsrOperator(matrix), ranking, solver="power")
        np.testing.assert_allclose(result.scores, reference.scores, atol=1e-9)

    def test_accepts_path(self, store):
        with SpamResilientPipeline(
            ranking=RankingParams(tolerance=1e-10, max_iter=1000)
        ) as pipe:
            result = pipe.rank_store(store.directory)
        assert result.scores.size == store.n_sources
