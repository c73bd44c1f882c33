"""Two-pass, bounded-memory construction of large graphs from edge files.

:func:`~repro.graph.io.read_edge_list` joins every chunk of the file into
one in-memory edge array — fine at laptop scale, wasteful for crawl-sized
inputs.  :class:`StreamingBuilder` processes the file in fixed-size chunks
twice:

* **pass 1** counts out-degrees (one int64 array of length ``n`` is the
  only full-size allocation);
* **pass 2** scatters targets directly into their final CSR slots using
  a rolling write cursor per row.

Peak memory is ``O(n + chunk)`` instead of ``O(edges)`` for the text
intermediates — the out-of-core streaming idiom from the HPC guides.
Rows are sorted and de-duplicated in a final vectorized pass.

For graphs that should never be materialized at all,
:meth:`StreamingBuilder.build_store` finalizes straight into a
:class:`~repro.webgraph.store.ShardedGraphStore`: rows are sorted,
de-duplicated, and shard-encoded one block at a time, so the conversion
adds only O(block) to the builder's own footprint.
"""

from __future__ import annotations

import operator
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from ..errors import GraphError
from .pagegraph import PageGraph

__all__ = ["StreamingBuilder", "stream_edge_chunks"]

_DEFAULT_CHUNK = 262_144  # edges per chunk

#: Hard ceiling on node counts: int64 CSR offsets and the O(n) count array
#: stay well-defined below this; a hint (or node id) beyond it is almost
#: certainly a corrupt input, and allocating for it would overflow memory
#: long before the graph arrives.
_MAX_NODES = 1 << 40


def stream_edge_chunks(
    path_or_file: str | Path | TextIO,
    *,
    sep: str | None = None,
    chunk_edges: int = _DEFAULT_CHUNK,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(src, dst)`` int64 array chunks from a text edge list.

    Comments (``#``) and blank lines are skipped; malformed lines and
    negative node ids raise :class:`~repro.errors.GraphError` with their
    line number.  This is the one edge-list line parser:
    :func:`~repro.graph.io.read_edge_list` reads through it too.
    """
    if chunk_edges < 1:
        raise GraphError(f"chunk_edges must be >= 1, got {chunk_edges}")

    def parse(handle: TextIO) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        src: list[int] = []
        dst: list[int] = []
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(sep)
            if len(parts) < 2:
                raise GraphError(f"line {lineno}: expected 'src dst', got {line!r}")
            try:
                s, d = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(
                    f"line {lineno}: non-integer node id in {line!r}"
                ) from exc
            if s < 0 or d < 0:
                # Name the offending line here rather than failing later in
                # StreamingBuilder.count with no file context (count keeps
                # its check as a backstop for callers feeding arrays
                # directly).
                raise GraphError(
                    f"line {lineno}: negative node id in {line!r}"
                )
            src.append(s)
            dst.append(d)
            if len(src) >= chunk_edges:
                yield (
                    np.asarray(src, dtype=np.int64),
                    np.asarray(dst, dtype=np.int64),
                )
                src, dst = [], []
        if src:
            yield np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)

    if isinstance(path_or_file, (str, Path)):
        with open(path_or_file, encoding="utf-8") as handle:
            yield from parse(handle)
    else:
        yield from parse(path_or_file)


class StreamingBuilder:
    """Two-pass CSR assembly from repeated chunk streams.

    Usage::

        builder = StreamingBuilder()
        for src, dst in stream_edge_chunks(path):      # pass 1
            builder.count(src, dst)
        builder.finish_counting()
        for src, dst in stream_edge_chunks(path):      # pass 2
            builder.fill(src, dst)
        graph = builder.build()

    The two streams must deliver the same edges (any order within the
    stream, identical multiset across passes); :meth:`build` verifies the
    fill is complete.
    """

    def __init__(self, n_nodes_hint: int = 0) -> None:
        try:
            hint = int(operator.index(n_nodes_hint))
        except TypeError as exc:
            raise GraphError(
                f"n_nodes_hint must be an integer, got "
                f"{type(n_nodes_hint).__name__}"
            ) from exc
        if hint < 0:
            raise GraphError(f"n_nodes_hint must be non-negative, got {hint}")
        if hint > _MAX_NODES:
            raise GraphError(
                f"n_nodes_hint {hint} exceeds the supported maximum of "
                f"{_MAX_NODES} nodes"
            )
        self._counts = np.zeros(max(hint, 1), dtype=np.int64)
        self._max_node = -1
        self._indptr: np.ndarray | None = None
        self._cursor: np.ndarray | None = None
        self._indices: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        if needed <= self._counts.size:
            return
        new_size = max(needed, self._counts.size * 2)
        grown = np.zeros(new_size, dtype=np.int64)
        grown[: self._counts.size] = self._counts
        self._counts = grown

    def count(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Pass-1 chunk: accumulate out-degree counts."""
        if self._indptr is not None:
            raise GraphError("count() called after finish_counting()")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise GraphError("src and dst chunks must have equal length")
        if src.size == 0:
            return
        if src.min() < 0 or dst.min() < 0:
            raise GraphError("node ids must be non-negative")
        hi = int(max(src.max(), dst.max()))
        if hi >= _MAX_NODES:
            raise GraphError(
                f"node id {hi} exceeds the supported maximum of "
                f"{_MAX_NODES} nodes"
            )
        self._max_node = max(self._max_node, hi)
        self._grow(hi + 1)
        np.add.at(self._counts, src, 1)

    def finish_counting(self) -> None:
        """Freeze pass 1 and allocate the CSR arrays."""
        if self._indptr is not None:
            raise GraphError("finish_counting() called twice")
        n = self._max_node + 1
        counts = self._counts[:n]
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self._indptr[1:])
        self._cursor = self._indptr[:-1].copy()
        self._indices = np.empty(int(self._indptr[-1]), dtype=np.int64)

    def fill(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Pass-2 chunk: scatter targets into their final CSR slots."""
        if self._indices is None or self._cursor is None:
            raise GraphError("fill() requires finish_counting() first")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise GraphError("src and dst chunks must have equal length")
        if src.size == 0:
            return
        # Misuse that used to corrupt silently: a negative id would
        # wrap-index the cursor/indptr bookkeeping, and an out-of-range
        # target would flow into the indices array unchecked (build() skips
        # PageGraph validation).  Both are typed errors now.
        if src.min() < 0 or dst.min() < 0:
            raise GraphError("node ids must be non-negative")
        if int(dst.max()) >= self._cursor.size:
            raise GraphError(
                f"fill saw target node {int(dst.max())} never seen during "
                "counting"
            )
        # Within the chunk, group by row to compute per-edge slots without
        # a Python loop: slot = cursor[row] + rank-within-row.
        order = np.argsort(src, kind="stable")
        s_sorted = src[order]
        d_sorted = dst[order]
        uniq, first_idx, counts = np.unique(
            s_sorted, return_index=True, return_counts=True
        )
        if uniq.size and uniq.max() >= self._cursor.size:
            raise GraphError(
                f"fill saw node {int(uniq.max())} never seen during counting"
            )
        within = np.arange(s_sorted.size, dtype=np.int64) - np.repeat(
            first_idx, counts
        )
        slots = self._cursor[s_sorted] + within
        if (slots >= self._indptr[s_sorted + 1]).any():
            raise GraphError("fill overflow: pass-2 edges exceed pass-1 counts")
        self._indices[slots] = d_sorted
        self._cursor[uniq] += counts

    def build(self) -> PageGraph:
        """Finalize: verify completeness, sort + de-duplicate rows."""
        if self._indices is None or self._indptr is None or self._cursor is None:
            raise GraphError("build() requires both passes")
        if not np.array_equal(self._cursor, self._indptr[1:]):
            raise GraphError(
                "fill incomplete: pass-2 edge multiset differs from pass 1"
            )
        n = self._indptr.size - 1
        # Sort within rows, then de-duplicate (PageGraph's invariant).
        row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(self._indptr))
        order = np.lexsort((self._indices, row_of))
        sorted_dst = self._indices[order]
        sorted_row = row_of[order]
        keep = np.ones(sorted_dst.size, dtype=bool)
        if sorted_dst.size > 1:
            keep[1:] = (sorted_row[1:] != sorted_row[:-1]) | (
                sorted_dst[1:] != sorted_dst[:-1]
            )
        dedup_dst = sorted_dst[keep]
        dedup_counts = np.bincount(sorted_row[keep], minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(dedup_counts, out=indptr[1:])
        return PageGraph(indptr, dedup_dst, n, validate=False)

    def build_store(
        self,
        directory: str | Path,
        *,
        block_size: int | None = None,
        meta: dict | None = None,
    ):
        """Finalize straight into a :class:`~repro.webgraph.store.ShardedGraphStore`.

        The shard-at-a-time alternative to :meth:`build`: each row block is
        sorted, de-duplicated, gap-encoded, and published independently, so
        no full ``PageGraph`` (or scipy copy of it) is ever assembled.  The
        store is unweighted — blocks decode with uniform ``1/outdeg``
        weights, directly usable as a random-walk transition operand.
        """
        from ..webgraph.store import DEFAULT_BLOCK_SIZE, ShardedStoreWriter

        if self._indices is None or self._indptr is None or self._cursor is None:
            raise GraphError("build_store() requires both passes")
        if not np.array_equal(self._cursor, self._indptr[1:]):
            raise GraphError(
                "fill incomplete: pass-2 edge multiset differs from pass 1"
            )
        block_size = int(block_size or DEFAULT_BLOCK_SIZE)
        n = self._indptr.size - 1
        writer = ShardedStoreWriter(directory, n, block_size=block_size)
        for lo in range(0, n, block_size):
            hi = min(lo + block_size, n)
            edge_lo, edge_hi = int(self._indptr[lo]), int(self._indptr[hi])
            dst = self._indices[edge_lo:edge_hi]
            row_of = np.repeat(
                np.arange(hi - lo, dtype=np.int64),
                np.diff(self._indptr[lo : hi + 1]),
            )
            order = np.lexsort((dst, row_of))
            sorted_dst = dst[order]
            sorted_row = row_of[order]
            keep = np.ones(sorted_dst.size, dtype=bool)
            if sorted_dst.size > 1:
                keep[1:] = (sorted_row[1:] != sorted_row[:-1]) | (
                    sorted_dst[1:] != sorted_dst[:-1]
                )
            counts = np.bincount(sorted_row[keep], minlength=hi - lo)
            local_indptr = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(counts, out=local_indptr[1:])
            writer.append_block(local_indptr, sorted_dst[keep])
        return writer.finalize(meta=meta)
