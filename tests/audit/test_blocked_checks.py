"""Per-block invariant checks over the sharded store (out-of-core audit)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.audit import (
    check_row_stochastic_blocks,
    check_throttled_operator_blocks,
)
from repro.errors import GraphError
from repro.linalg import BlockedOperator, CsrOperator, ThrottledOperator
from repro.webgraph.store import ShardedGraphStore


def _stochastic(n: int, density: float, seed: int) -> sp.csr_matrix:
    m = sp.random(n, n, density=density, random_state=seed, format="csr")
    sums = np.asarray(m.sum(axis=1)).ravel()
    scale = np.where(sums > 0, 1.0 / np.where(sums > 0, sums, 1.0), 0.0)
    return (sp.diags(scale) @ m).tocsr()


@pytest.fixture(scope="module")
def matrix() -> sp.csr_matrix:
    return _stochastic(90, 0.05, seed=17)


@pytest.fixture()
def store(matrix, tmp_path) -> ShardedGraphStore:
    return ShardedGraphStore.from_matrix(matrix, tmp_path / "store", block_size=25)


class TestRowStochasticBlocks:
    def test_clean_store_passes(self, store):
        assert check_row_stochastic_blocks(store) == []

    def test_blocked_operator_accepted(self, store):
        with BlockedOperator(store) as op:
            assert check_row_stochastic_blocks(op) == []

    def test_scaled_row_flagged_with_block_id(self, matrix, tmp_path):
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        # Pick a non-dangling row inside block 1 (rows 25–49 at block_size=25).
        row = 25 + int(np.flatnonzero(sums[25:50] > 0)[0])
        bad = matrix.copy().tolil()
        bad[row] = (bad[row].toarray() * 3.0).ravel().tolist()
        bad_store = ShardedGraphStore.from_matrix(
            bad.tocsr(), tmp_path / "bad", block_size=25
        )
        violations = check_row_stochastic_blocks(bad_store)
        assert violations
        assert any("[block 1]" in v.subject for v in violations)


class TestThrottledOperatorBlocks:
    def test_clean_operator_passes(self, store):
        n = store.n_sources
        kappa = np.zeros(n)
        kappa[::5] = 0.6
        kappa[1::13] = 1.0
        # Throttling needs off-diagonal mass to rescale: leave dangling
        # rows unthrottled.
        kappa[store.row_sums() <= 1e-12] = 0.0
        for mode in ("self", "dangling"):
            with BlockedOperator(store, cache_blocks=2) as base:
                op = ThrottledOperator(base, kappa, full_throttle=mode)
                assert check_throttled_operator_blocks(op) == []

    def test_rejects_in_memory_base(self, matrix):
        op = ThrottledOperator(CsrOperator(matrix), np.zeros(matrix.shape[0]))
        with pytest.raises(GraphError, match="blocked base"):
            check_throttled_operator_blocks(op)
