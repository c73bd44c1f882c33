"""Lazy transition operators — the paper's model family as one abstraction.

Every ranking in the library (PageRank, SourceRank, spam proximity on the
reversed graph, Spam-Resilient SourceRank over the throttled matrix
``T''``) is a teleporting random walk whose per-iteration work is a single
transpose matvec ``y = A^T x`` against a different linear operator ``A``.
This module makes that operator explicit:

* :class:`TransitionOperator` — the protocol the solvers iterate against
  (``rmatvec``, order, dangling mask, kernel name, ``materialize`` for
  solvers that need an explicit matrix);
* :class:`CsrOperator` — a concrete CSR matrix whose transpose matvec
  runs through a transposed CSR built once;
* :class:`BlockedOperator` — the out-of-core path: a
  :class:`~repro.webgraph.store.ShardedGraphStore` behind a bounded cache
  of decoded row blocks, so the fixpoint streams shards from disk and the
  full matrix is never assembled;
* :class:`ThrottledOperator` — the influence-throttle transform
  ``T' -> T''`` (Section 3.3) applied *lazily* as a per-row out-scale plus
  a diagonal self-edge term, so Spam-Resilient SourceRank never
  materializes ``T''`` (κ-sweeps and incremental reruns reuse one base
  matrix and one transposed CSR);
* :class:`ReversedOperator` — the Section 5 spam-proximity walk over the
  reversed source graph, expressed as a *forward* matvec on the original
  orientation, so no reversed CSR is ever built.

Every ``rmatvec`` returns a freshly allocated vector, so callers may keep
or mutate a result across further calls.

The algebra behind the lazy forms:

* throttling is ``T'' = diag(s) T' + diag(c)`` with per-row scale ``s``
  and diagonal correction ``c``, hence
  ``T''^T x = T'^T (s ⊙ x) + c ⊙ x``;
* the reversed walk matrix is ``U = diag(1/indeg) B^T`` for the
  self-edge-free binary adjacency ``B``, hence
  ``U^T x = B (x / indeg)`` — a plain CSR matvec on ``B``.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Protocol, runtime_checkable

import numpy as np
import scipy.sparse as sp

from ..errors import ConfigError, GraphError, ThrottleError

__all__ = [
    "TransitionOperator",
    "CsrOperator",
    "BlockedOperator",
    "ThrottledOperator",
    "ReversedOperator",
    "as_operator",
    "as_matrix",
]

_FULL_THROTTLE_MODES = ("self", "dangling")
_DANGLING_ATOL = 1e-12


@runtime_checkable
class TransitionOperator(Protocol):
    """A row-(sub)stochastic transition operator the solvers iterate on.

    Implementations expose the transpose matvec (the only operation the
    power method needs), their order and dangling-row structure, and a
    ``materialize`` escape hatch for solvers (Jacobi, Gauss–Seidel) that
    require an explicit CSR system matrix.
    """

    @property
    def n(self) -> int:
        """Operator order (the matrix is ``n x n``)."""
        ...

    @property
    def kernel(self) -> str:
        """Telemetry tag naming the matvec path (``scipy`` or ``blocked``)."""
        ...

    @property
    def dangling_mask(self) -> np.ndarray:
        """Boolean mask of rows carrying (numerically) zero mass."""
        ...

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A^T @ x`` as a new array."""
        ...

    def materialize(self) -> sp.csr_matrix:
        """The operator as an explicit CSR matrix (may be built on demand)."""
        ...


class CsrOperator:
    """A CSR transition matrix with a cached transpose for ``A^T x``."""

    __slots__ = ("matrix", "_mask", "_at")

    def __init__(self, matrix: sp.spmatrix) -> None:
        if not sp.issparse(matrix):
            raise GraphError(
                "CsrOperator requires a scipy sparse matrix, got "
                f"{type(matrix).__name__}"
            )
        matrix = matrix.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise GraphError(f"transition matrix must be square, got {matrix.shape}")
        self.matrix = matrix
        self._mask = np.asarray(matrix.sum(axis=1)).ravel() <= _DANGLING_ATOL
        # A^T x is fastest via the CSR of A^T, built once and reused every
        # iteration.
        self._at = matrix.T.tocsr()

    @property
    def n(self) -> int:
        """Matrix order."""
        return int(self.matrix.shape[0])

    @property
    def kernel(self) -> str:
        """Always ``scipy`` (the telemetry tag of the in-memory matvec)."""
        return "scipy"

    @property
    def dangling_mask(self) -> np.ndarray:
        """Boolean mask of dangling (all-zero) rows."""
        return self._mask

    @property
    def n_dangling(self) -> int:
        """Number of dangling rows."""
        return int(self._mask.sum())

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``A^T @ x`` through the cached transposed CSR."""
        return self._at @ x

    def materialize(self) -> sp.csr_matrix:
        """The backing CSR matrix itself (no copy)."""
        return self.matrix

    def __repr__(self) -> str:
        return f"CsrOperator(n={self.n}, nnz={self.matrix.nnz})"


class BlockedOperator:
    """A :class:`~repro.webgraph.store.ShardedGraphStore` as a transition operator.

    The out-of-core half of the operator family: ``rmatvec`` streams the
    store's row blocks, accumulating each block's transpose-matvec
    contribution ``A_b^T x[rows_b]`` into the output via a ``bincount``
    scatter, so peak memory stays O(block + iterate) regardless of graph
    size.  Decoded blocks live in a bounded LRU cache keyed by block id —
    graphs smaller than the cache behave like an in-memory operator,
    larger graphs re-decode shards each sweep (the honest out-of-core
    cost, measured by ``benchmarks/bench_sharding.py``).

    Composes under :class:`ThrottledOperator` — the store's one streaming
    stats pass provides the base diagonal and row sums the throttle
    algebra needs, so κ stays lazy on top of a lazy matrix.
    """

    __slots__ = (
        "_store",
        "_cache",
        "_cache_blocks",
        "_mask",
        "_sums",
        "_diag",
        "_closed",
    )

    def __init__(self, store: object, *, cache_blocks: int = 4) -> None:
        from ..webgraph.store import ShardedGraphStore

        if isinstance(store, (str, Path)):
            store = ShardedGraphStore.open(store)
        if not isinstance(store, ShardedGraphStore):
            raise GraphError(
                "BlockedOperator requires a ShardedGraphStore or a store "
                f"path, got {type(store).__name__}"
            )
        cache_blocks = int(cache_blocks)
        if cache_blocks < 1:
            raise ConfigError(f"cache_blocks must be >= 1, got {cache_blocks}")
        self._store = store
        self._cache: "OrderedDict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._cache_blocks = cache_blocks
        # One streaming pass over the shards yields both stats vectors; the
        # store caches them, so ThrottledOperator composition is free.
        self._sums = store.row_sums()
        self._diag = store.diagonal()
        self._mask = self._sums <= _DANGLING_ATOL
        self._closed = False

    @property
    def n(self) -> int:
        """Operator order."""
        return self._store.n_sources

    @property
    def kernel(self) -> str:
        """Always ``blocked`` (the telemetry tag of shard streaming)."""
        return "blocked"

    @property
    def dangling_mask(self) -> np.ndarray:
        """Rows with (numerically) zero mass across all blocks."""
        return self._mask

    @property
    def store(self):
        """The backing :class:`~repro.webgraph.store.ShardedGraphStore`."""
        return self._store

    @property
    def cache_blocks(self) -> int:
        """Maximum number of decoded blocks held in memory."""
        return self._cache_blocks

    @property
    def cached_blocks(self) -> int:
        """Number of blocks currently decoded in the cache."""
        return len(self._cache)

    def diagonal(self) -> np.ndarray:
        """Main diagonal (from the store's streaming stats pass)."""
        return self._diag.copy()

    def row_sums(self) -> np.ndarray:
        """Per-row sums (from the store's streaming stats pass)."""
        return self._sums.copy()

    def iter_blocks(self):
        """Yield ``(ShardInfo, csr_block)`` pairs — per-block audit hook."""
        return self._store.iter_blocks()

    def _block_arrays(
        self, block_id: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(global_rows, cols, vals)`` per edge of one block, LRU-cached."""
        cached = self._cache.get(block_id)
        if cached is not None:
            self._cache.move_to_end(block_id)
            return cached
        info = self._store.shards[block_id]
        block = self._store.load_block(block_id)
        rows = info.row_start + np.repeat(
            np.arange(info.n_rows, dtype=np.int64), np.diff(block.indptr)
        )
        entry = (rows, block.indices.astype(np.int64), block.data)
        self._cache[block_id] = entry
        while len(self._cache) > self._cache_blocks:
            self._cache.popitem(last=False)
        return entry

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``A^T @ x`` streamed over the row-block shards."""
        if self._closed:
            raise GraphError("BlockedOperator is closed")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise GraphError(
                f"vector has shape {x.shape}, operator expects ({self.n},)"
            )
        y = np.zeros(self.n, dtype=np.float64)
        for info in self._store.shards:
            rows, cols, vals = self._block_arrays(info.block_id)
            # Scatter the block's contribution: y[c] += v * x[r] for each
            # edge (r, c).  bincount is the fast vectorized scatter-add.
            y += np.bincount(cols, weights=vals * x[rows], minlength=self.n)
        return y

    def materialize(self) -> sp.csr_matrix:
        """Assemble the full CSR from the store (O(matrix) — escape hatch
        for the stationary linear solvers, not the streaming path)."""
        return self._store.materialize()

    def close(self) -> None:
        """Drop the block cache; later matvecs raise."""
        self._cache.clear()
        self._closed = True

    def __enter__(self) -> "BlockedOperator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"BlockedOperator(n={self.n}, blocks={self._store.n_blocks}, "
            f"cache_blocks={self._cache_blocks})"
        )


class ThrottledOperator:
    """The influence-throttled matrix ``T''`` (Section 3.3), applied lazily.

    Wraps a base :class:`CsrOperator` (or raw CSR matrix) and the
    throttling vector κ.  Instead of materializing ``T''``, the transform
    is factored as ``T'' = diag(s) T' + diag(c)`` — ``s`` rescales each
    row's out-mass to ``1 - κ_i`` and ``c`` raises the self-edge to
    ``κ_i`` — so one transpose matvec against the *base* matrix plus two
    vector multiplies computes ``T''^T x`` exactly.  A κ-sweep therefore
    reuses a single base matrix (and single transposed CSR) across all κ.

    Parameters
    ----------
    base:
        The unthrottled source operator ``T'`` — a :class:`CsrOperator`
        (shared across sweeps), any operator exposing its diagonal and
        row sums (:class:`BlockedOperator`), or a row-stochastic CSR
        matrix (wrapped here).
    kappa:
        Throttling factors in ``[0, 1]``, one per source (a
        :class:`~repro.throttle.vector.ThrottleVector` or array-like);
        ``None`` means no throttling.
    full_throttle:
        κ = 1 semantics: ``"self"`` (the literal Section 3.3 transform)
        or ``"dangling"`` (fully-throttled rows pass nothing at all) —
        see :mod:`repro.throttle.transform` for the discussion.
    """

    __slots__ = (
        "_base",
        "_scale",
        "_shift",
        "_kappa",
        "_full_throttle",
        "_mask",
        "_identity",
        "_base_diag",
        "_base_sums",
    )

    def __init__(
        self,
        base: "CsrOperator | sp.spmatrix",
        kappa: object = None,
        *,
        full_throttle: str = "self",
    ) -> None:
        if full_throttle not in _FULL_THROTTLE_MODES:
            raise ThrottleError(
                f"full_throttle must be one of {_FULL_THROTTLE_MODES}, got "
                f"{full_throttle!r}"
            )
        base_op = CsrOperator(base) if sp.issparse(base) else base
        # Duck-typed: the transform needs the base diagonal and row sums —
        # either from an explicit ``.matrix`` (CsrOperator, FaultyOperator)
        # or from ``diagonal()``/``row_sums()`` methods (BlockedOperator,
        # whose matrix never exists in memory).
        has_matrix = hasattr(base_op, "matrix")
        has_stats = hasattr(base_op, "diagonal") and hasattr(base_op, "row_sums")
        if not (hasattr(base_op, "rmatvec") and (has_matrix or has_stats)):
            raise GraphError(
                "ThrottledOperator needs a base exposing rmatvec plus either "
                "a .matrix or diagonal()/row_sums() (the transform reads the "
                f"base diagonal), got {type(base).__name__}"
            )
        n = base_op.n
        if has_matrix:
            matrix = base_op.matrix
            base_diag = matrix.diagonal().astype(np.float64)
            base_sums = np.asarray(matrix.sum(axis=1), dtype=np.float64).ravel()
        else:
            base_diag = np.asarray(base_op.diagonal(), dtype=np.float64).ravel()
            base_sums = np.asarray(base_op.row_sums(), dtype=np.float64).ravel()
        if kappa is None:
            k = np.zeros(n, dtype=np.float64)
        else:
            k = np.asarray(
                getattr(kappa, "kappa", kappa), dtype=np.float64
            ).ravel()
        if k.size != n:
            raise ThrottleError(
                f"throttle vector covers {k.size} sources but matrix is {n}x{n}"
            )
        if k.size and ((k < 0.0).any() or (k > 1.0).any()):
            raise ThrottleError("throttle factors must lie in [0, 1]")

        diag = base_diag
        off_mass = base_sums - diag
        full = (k >= 1.0) if full_throttle == "dangling" else np.zeros(n, dtype=bool)
        needs = (diag < k) & ~full
        bad = needs & (off_mass <= 0)
        if bad.any():
            raise ThrottleError(
                f"{int(bad.sum())} rows need throttling but have no off-diagonal "
                "mass to rescale; is the input row-stochastic?"
            )
        scale = np.ones(n, dtype=np.float64)
        scale[needs] = (1.0 - k[needs]) / off_mass[needs]
        scale[full] = 0.0
        new_diag = np.where(needs, k, diag)
        new_diag[full] = 0.0
        self._base = base_op
        self._scale = scale
        # T''_ii = scale_i * T'_ii + shift_i, exactly as the materialized
        # transform overwrites the scaled diagonal with new_diag.
        self._shift = new_diag - scale * diag
        self._kappa = k
        self._full_throttle = full_throttle
        self._mask = full | (base_op.dangling_mask & ~needs)
        self._identity = not needs.any() and not full.any()
        self._base_diag = base_diag
        self._base_sums = base_sums

    @property
    def n(self) -> int:
        """Operator order."""
        return self._base.n

    @property
    def kernel(self) -> str:
        """The base operator's telemetry tag."""
        return self._base.kernel

    @property
    def dangling_mask(self) -> np.ndarray:
        """Rows of ``T''`` with zero mass (κ=1 rows in dangling mode)."""
        return self._mask

    @property
    def base(self) -> CsrOperator:
        """The unthrottled base operator ``T'``."""
        return self._base

    @property
    def kappa(self) -> np.ndarray:
        """The throttling vector (read-only view)."""
        return self._kappa

    @property
    def full_throttle(self) -> str:
        """The κ = 1 semantics in effect."""
        return self._full_throttle

    def diagonal(self) -> np.ndarray:
        """Diagonal of ``T''`` as this operator applies it (no materialization).

        ``T''_ii = s_i · T'_ii + c_i`` — the quantity the correctness
        audit checks against the paper's ``T''_ii = κ_i`` invariant on
        boosted rows.
        """
        return self._scale * self._base_diag + self._shift

    def row_sums(self) -> np.ndarray:
        """Row sums of ``T''`` as this operator applies it.

        Only the diagonal departs from the uniform per-row scale, so
        ``sum_j T''_ij = s_i · sum_j T'_ij + c_i``.
        """
        return self._scale * self._base_sums + self._shift

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``T''^T @ x`` without materializing ``T''``."""
        if self._identity:
            return self._base.rmatvec(x)
        x = np.asarray(x, dtype=np.float64)
        y = self._base.rmatvec(self._scale * x)
        y += self._shift * x
        return y

    def materialize(self) -> sp.csr_matrix:
        """The explicit ``T''`` via :func:`repro.throttle.transform.throttle_transform`."""
        # Imported lazily: the throttle package sits above linalg in the
        # layering (it pulls in the ranking solvers at import time).
        from ..throttle.transform import throttle_transform
        from ..throttle.vector import ThrottleVector

        base_matrix = (
            self._base.matrix
            if hasattr(self._base, "matrix")
            else self._base.materialize()
        )
        return throttle_transform(
            base_matrix,
            ThrottleVector(self._kappa),
            full_throttle=self._full_throttle,
        )

    def __repr__(self) -> str:
        return (
            f"ThrottledOperator(n={self.n}, throttled="
            f"{int((self._kappa > 0).sum())}, "
            f"full_throttle={self._full_throttle!r})"
        )


class ReversedOperator:
    """The reversed-graph walk matrix ``U`` of Section 5, applied lazily.

    Spam proximity reverses edge *existence* (not weights), drops
    self-edges, and row-normalizes uniformly over in-neighbours:
    ``U = diag(1/indeg) B^T`` for the binary adjacency ``B`` of the
    original orientation.  The walk's transpose matvec is then
    ``U^T x = B (x / indeg)`` — a plain forward CSR matvec on ``B`` —
    so the reversed matrix is never built.
    """

    __slots__ = ("_binary", "_inv_indeg", "_mask", "_drop_self_edges")

    def __init__(
        self,
        matrix: "CsrOperator | sp.spmatrix",
        *,
        drop_self_edges: bool = True,
    ) -> None:
        if isinstance(matrix, CsrOperator):
            matrix = matrix.matrix
        if not sp.issparse(matrix):
            raise GraphError(
                "ReversedOperator requires a scipy sparse matrix, got "
                f"{type(matrix).__name__}"
            )
        matrix = matrix.tocsr()
        if matrix.shape[0] != matrix.shape[1]:
            raise GraphError(f"source matrix must be square, got {matrix.shape}")
        n = matrix.shape[0]
        binary = matrix.copy()
        binary.data = np.ones_like(binary.data, dtype=np.float64)
        if drop_self_edges:
            rows = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(binary.indptr)
            )
            binary.data[binary.indices == rows] = 0.0
            binary.eliminate_zeros()
        indeg = np.asarray(binary.sum(axis=0)).ravel()
        with np.errstate(divide="ignore"):
            inv = np.where(indeg > 0, 1.0 / np.maximum(indeg, 1.0), 0.0)
        self._binary = binary
        self._inv_indeg = inv
        self._mask = indeg == 0
        self._drop_self_edges = drop_self_edges

    @property
    def n(self) -> int:
        """Operator order."""
        return int(self._binary.shape[0])

    @property
    def kernel(self) -> str:
        """Always ``scipy`` (the telemetry tag of the in-memory matvec)."""
        return "scipy"

    @property
    def dangling_mask(self) -> np.ndarray:
        """Rows of ``U`` with no mass: sources nobody links to."""
        return self._mask

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """``U^T @ x`` via a forward matvec on the original orientation."""
        return self._binary @ (self._inv_indeg * np.asarray(x, dtype=np.float64))

    def materialize(self) -> sp.csr_matrix:
        """The explicit reversed transition matrix ``U``."""
        from ..graph.matrix import row_normalize

        return row_normalize(
            self._binary.T.tocsr().astype(np.float64), copy=False
        )

    def __repr__(self) -> str:
        return (
            f"ReversedOperator(n={self.n}, edges={self._binary.nnz}, "
            f"drop_self_edges={self._drop_self_edges})"
        )


def as_operator(operand: "TransitionOperator | sp.spmatrix") -> "TransitionOperator":
    """Coerce a CSR matrix to a :class:`CsrOperator`; pass operators through."""
    if sp.issparse(operand):
        return CsrOperator(operand)
    if hasattr(operand, "rmatvec") and hasattr(operand, "n"):
        return operand
    raise GraphError(
        "expected a scipy sparse matrix or TransitionOperator, got "
        f"{type(operand).__name__}"
    )


def as_matrix(operand: "TransitionOperator | sp.spmatrix") -> sp.csr_matrix:
    """The explicit CSR matrix of a matrix-or-operator operand."""
    if sp.issparse(operand):
        matrix = operand.tocsr()
    elif hasattr(operand, "materialize"):
        matrix = operand.materialize().tocsr()
    else:
        raise GraphError(
            "expected a scipy sparse matrix or TransitionOperator, got "
            f"{type(operand).__name__}"
        )
    if matrix.shape[0] != matrix.shape[1]:
        raise GraphError(f"transition matrix must be square, got {matrix.shape}")
    return matrix
