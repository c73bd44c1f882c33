"""Property tests: the lazy operators match their materialized matrices.

The acceptance bar for the operator layer is exactness, not speed:
``ThrottledOperator`` must agree with the explicit
:func:`repro.throttle.transform.throttle_transform` matrix and
``ReversedOperator`` with the explicit
:func:`repro.throttle.spam_proximity.inverse_transition_matrix`, on random
sparse graphs including dangling rows and the κ ∈ {0, 1} extremes.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RankingParams
from repro.errors import GraphError, ThrottleError
from repro.linalg import (
    BlockedOperator,
    CsrOperator,
    ReversedOperator,
    ThrottledOperator,
    TransitionOperator,
    as_matrix,
    as_operator,
)
from repro.ranking.power import power_iteration
from repro.throttle.spam_proximity import inverse_transition_matrix
from repro.throttle.transform import throttle_transform
from repro.throttle.vector import ThrottleVector
from repro.webgraph.store import ShardedGraphStore


def random_stochastic(seed: int, *, n_dangling: int = 0) -> sp.csr_matrix:
    """Random row-stochastic CSR with self-edges; optional dangling rows."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 25))
    dense = (gen.random((n, n)) < 0.35) * gen.random((n, n))
    np.fill_diagonal(dense, gen.random(n) * 0.5)
    dense[dense.sum(axis=1) == 0, 0] = 1.0  # no accidental dangling rows
    dense /= dense.sum(axis=1, keepdims=True)
    for i in range(min(n_dangling, n - 1)):
        dense[n - 1 - i, :] = 0.0
    return sp.csr_matrix(dense)


def random_kappa(seed: int, n: int) -> np.ndarray:
    """Random κ with a mix of interior values and the {0, 1} extremes."""
    gen = np.random.default_rng(seed + 1)
    kappa = gen.random(n)
    kappa[gen.random(n) < 0.25] = 0.0
    kappa[gen.random(n) < 0.25] = 1.0
    return kappa


class TestThrottledOperatorMatchesTransform:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["self", "dangling"]),
    )
    def test_rmatvec_matches_materialized(self, seed, full_throttle):
        matrix = random_stochastic(seed)
        n = matrix.shape[0]
        kappa = random_kappa(seed, n)
        explicit = throttle_transform(
            matrix, ThrottleVector(kappa), full_throttle=full_throttle
        )
        gen = np.random.default_rng(seed + 2)
        x = gen.random(n)
        op = ThrottledOperator(matrix, kappa, full_throttle=full_throttle)
        np.testing.assert_allclose(
            op.rmatvec(x), explicit.T @ x, atol=1e-13, rtol=1e-13
        )

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["self", "dangling"]),
    )
    def test_materialize_matches_transform(self, seed, full_throttle):
        matrix = random_stochastic(seed)
        kappa = random_kappa(seed, matrix.shape[0])
        explicit = throttle_transform(
            matrix, ThrottleVector(kappa), full_throttle=full_throttle
        )
        op = ThrottledOperator(matrix, kappa, full_throttle=full_throttle)
        assert (op.materialize() - explicit).nnz == 0 or np.allclose(
            op.materialize().toarray(), explicit.toarray(), atol=1e-14
        )

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["self", "dangling"]),
    )
    def test_dangling_mask_matches_materialized(self, seed, full_throttle):
        matrix = random_stochastic(seed)
        kappa = random_kappa(seed, matrix.shape[0])
        explicit = throttle_transform(
            matrix, ThrottleVector(kappa), full_throttle=full_throttle
        )
        explicit_mask = np.asarray(explicit.sum(axis=1)).ravel() <= 1e-12
        op = ThrottledOperator(matrix, kappa, full_throttle=full_throttle)
        np.testing.assert_array_equal(op.dangling_mask, explicit_mask)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["self", "dangling"]),
    )
    def test_solve_matches_materialized_path(self, seed, full_throttle):
        """The acceptance bound: lazy vs explicit score vectors <= 1e-12."""
        matrix = random_stochastic(seed)
        n = matrix.shape[0]
        kappa = random_kappa(seed, n)
        params = RankingParams(tolerance=1e-13, max_iter=5000, strict=False)
        explicit = throttle_transform(
            matrix, ThrottleVector(kappa), full_throttle=full_throttle
        )
        expected = power_iteration(explicit, params, label="explicit")
        op = ThrottledOperator(matrix, kappa, full_throttle=full_throttle)
        lazy = power_iteration(op, params, label="lazy")
        np.testing.assert_allclose(
            lazy.scores, expected.scores, atol=1e-12, rtol=0
        )

    def test_kappa_zero_is_identity(self):
        matrix = random_stochastic(7)
        n = matrix.shape[0]
        x = np.random.default_rng(7).random(n)
        op = ThrottledOperator(matrix, np.zeros(n))
        np.testing.assert_allclose(op.rmatvec(x), matrix.T @ x, atol=1e-14)

    def test_kappa_one_dangling_mutes_rows(self):
        matrix = random_stochastic(11)
        n = matrix.shape[0]
        kappa = np.zeros(n)
        kappa[0] = 1.0
        op = ThrottledOperator(matrix, kappa, full_throttle="dangling")
        assert op.dangling_mask[0]
        # Row 0 contributes nothing: T''^T x has no term from x[0].
        x = np.zeros(n)
        x[0] = 1.0
        np.testing.assert_allclose(op.rmatvec(x), np.zeros(n), atol=1e-14)

    def test_dangling_rows_with_zero_kappa_pass_through(self):
        matrix = random_stochastic(13, n_dangling=2)
        n = matrix.shape[0]
        x = np.random.default_rng(13).random(n)
        op = ThrottledOperator(matrix, np.zeros(n))
        np.testing.assert_allclose(op.rmatvec(x), matrix.T @ x, atol=1e-14)
        assert op.dangling_mask.sum() == 2

    def test_throttling_a_dangling_row_raises(self):
        matrix = random_stochastic(17, n_dangling=1)
        n = matrix.shape[0]
        kappa = np.zeros(n)
        kappa[n - 1] = 0.5  # the dangling row: no off-mass to rescale
        with pytest.raises(ThrottleError, match="off-diagonal"):
            ThrottledOperator(matrix, kappa)

    def test_wrong_kappa_length_raises(self):
        matrix = random_stochastic(19)
        with pytest.raises(ThrottleError, match="covers"):
            ThrottledOperator(matrix, np.zeros(matrix.shape[0] + 1))

    def test_kappa_out_of_range_raises(self):
        matrix = random_stochastic(19)
        kappa = np.zeros(matrix.shape[0])
        kappa[0] = 1.5
        with pytest.raises(ThrottleError):
            ThrottledOperator(matrix, kappa)

    def test_bad_full_throttle_raises(self):
        matrix = random_stochastic(19)
        with pytest.raises(ThrottleError, match="full_throttle"):
            ThrottledOperator(matrix, None, full_throttle="explode")


class TestReversedOperatorMatchesInverse:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.booleans(),
    )
    def test_rmatvec_matches_materialized(self, seed, drop_self_edges):
        matrix = random_stochastic(seed, n_dangling=seed % 3)
        n = matrix.shape[0]
        explicit = inverse_transition_matrix(
            matrix, drop_self_edges=drop_self_edges
        )
        x = np.random.default_rng(seed + 3).random(n)
        op = ReversedOperator(matrix, drop_self_edges=drop_self_edges)
        np.testing.assert_allclose(
            op.rmatvec(x), explicit.T @ x, atol=1e-13, rtol=1e-13
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_materialize_matches_inverse(self, seed):
        matrix = random_stochastic(seed)
        explicit = inverse_transition_matrix(matrix)
        op = ReversedOperator(matrix)
        np.testing.assert_allclose(
            op.materialize().toarray(), explicit.toarray(), atol=1e-14
        )

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_dangling_mask_matches(self, seed):
        matrix = random_stochastic(seed)
        explicit = inverse_transition_matrix(matrix)
        explicit_mask = np.asarray(explicit.sum(axis=1)).ravel() <= 1e-12
        op = ReversedOperator(matrix)
        np.testing.assert_array_equal(op.dangling_mask, explicit_mask)

    def test_rejects_dense(self):
        with pytest.raises(GraphError):
            ReversedOperator(np.eye(3))


class TestRmatvecContract:
    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda m, d: CsrOperator(m), id="csr"),
            pytest.param(
                lambda m, d: ThrottledOperator(m, np.zeros(m.shape[0])),
                id="throttled-identity",
            ),
            pytest.param(
                lambda m, d: ThrottledOperator(m, random_kappa(37, m.shape[0])),
                id="throttled",
            ),
            pytest.param(lambda m, d: ReversedOperator(m), id="reversed"),
            pytest.param(
                lambda m, d: BlockedOperator(
                    ShardedGraphStore.from_matrix(m, d, block_size=4)
                ),
                id="blocked",
            ),
        ],
    )
    def test_result_is_exact_and_survives_next_call(self, build, tmp_path):
        """Every rmatvec returns a fresh vector: the next call leaves it be."""
        matrix = random_stochastic(37)
        op = build(matrix, tmp_path)
        gen = np.random.default_rng(37)
        x1, x2 = gen.random(op.n), gen.random(op.n)
        y1 = op.rmatvec(x1)
        np.testing.assert_allclose(y1, op.materialize().T @ x1, atol=1e-14)
        kept = y1.copy()
        y2 = op.rmatvec(x2)
        np.testing.assert_allclose(y2, op.materialize().T @ x2, atol=1e-14)
        np.testing.assert_array_equal(y1, kept)


class TestCsrOperator:
    def test_rejects_dense_and_non_square(self):
        with pytest.raises(GraphError):
            CsrOperator(np.eye(3))
        with pytest.raises(GraphError):
            CsrOperator(sp.csr_matrix(np.ones((2, 3))))

    def test_satisfies_protocol(self):
        op = CsrOperator(random_stochastic(1))
        assert isinstance(op, TransitionOperator)
        assert isinstance(ThrottledOperator(op), TransitionOperator)
        assert isinstance(ReversedOperator(op), TransitionOperator)


class TestCoercions:
    def test_as_operator_passthrough_and_wrap(self):
        matrix = random_stochastic(31)
        op = CsrOperator(matrix)
        assert as_operator(op) is op
        assert isinstance(as_operator(matrix), CsrOperator)
        with pytest.raises(GraphError):
            as_operator(np.eye(3))

    def test_as_matrix(self):
        matrix = random_stochastic(31)
        assert as_matrix(matrix) is not None
        assert (as_matrix(CsrOperator(matrix)) != matrix).nnz == 0
        with pytest.raises(GraphError):
            as_matrix(np.eye(3))
        with pytest.raises(GraphError):
            as_matrix(sp.csr_matrix(np.ones((2, 3))))
