"""Sharded on-disk graph store — row-block shards of a compressed CSR.

The paper's crawls (18–118M pages, Table 1) do not fit a single in-memory
CSR, so the source graph lives on disk as a *manifest + N row-block shards*.
Each shard holds a contiguous slice of rows in the package's one graph
codec: successor lists are delta-gap transformed (:mod:`repro.webgraph.gaps`,
first entry relative to the *global* row id so locality survives sharding)
and LEB128 varint coded (:mod:`repro.webgraph.varint`).  Every shard is
decodable independently — ``load_block(i)`` touches exactly one file —
which is what lets the blocked operator stream the fixpoint without ever
assembling the full matrix.

Each shard is a :mod:`repro.container` file, published atomically and named
after its own sha256 digest; the manifest records that digest.  A writer
therefore never overwrites a file that a live manifest names, and
:meth:`ShardedStoreWriter.finalize`'s manifest publish is the single commit
point.  A shard whose bytes, digest or structure disagree with the manifest
is rejected with a ``repro_store_rejects_total`` counter and a typed error
rather than silently serving torn bytes.

Stores come in two flavours:

``weighted``
    Each shard carries a ``float64`` weight per edge (e.g. the rows of a
    row-stochastic source matrix ``T'``).
``unweighted``
    Structure only; blocks decode with uniform ``1/outdeg`` row weights so
    the store is directly usable as a random-walk transition operand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np
import scipy.sparse as sp

from ..container import pack, publish, read_container, remove
from ..errors import CodecError, GraphError
from ..logging_utils import get_logger
from .gaps import from_gaps, to_gaps, zigzag_decode, zigzag_encode
from .varint import decode_varints, encode_varints

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..graph.pagegraph import PageGraph

__all__ = [
    "ShardInfo",
    "ShardedGraphStore",
    "ShardedStoreWriter",
    "DEFAULT_BLOCK_SIZE",
    "STORE_FORMAT_VERSION",
]

log = get_logger("webgraph.store")

STORE_FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
DEFAULT_BLOCK_SIZE = 65_536

REJECTS_METRIC = "repro_store_rejects_total"


def _record_reject(reason: str) -> None:
    from ..observability.metrics import get_registry

    get_registry().counter(
        REJECTS_METRIC,
        "Sharded-store blocks rejected on load, by reason.",
        labelnames=("reason",),
    ).labels(reason=reason).inc()


@dataclass(frozen=True, slots=True)
class ShardInfo:
    """Manifest record for one row-block shard."""

    block_id: int
    row_start: int
    row_stop: int
    n_edges: int
    filename: str
    digest: str
    payload_bytes: int

    @property
    def n_rows(self) -> int:
        return self.row_stop - self.row_start

    def to_json(self) -> dict:
        return {
            "block_id": self.block_id,
            "row_start": self.row_start,
            "row_stop": self.row_stop,
            "n_edges": self.n_edges,
            "filename": self.filename,
            "digest": self.digest,
            "payload_bytes": self.payload_bytes,
        }

    @staticmethod
    def from_json(record: dict) -> "ShardInfo":
        try:
            return ShardInfo(
                block_id=int(record["block_id"]),
                row_start=int(record["row_start"]),
                row_stop=int(record["row_stop"]),
                n_edges=int(record["n_edges"]),
                filename=str(record["filename"]),
                digest=str(record["digest"]),
                payload_bytes=int(record["payload_bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CodecError(f"malformed shard record in manifest: {exc}") from exc


def _encode_block(
    local_indptr: np.ndarray, indices: np.ndarray, *, row_start: int
) -> bytes:
    """Gap + varint encode one row block.

    :func:`~repro.webgraph.gaps.to_gaps` stores each row's first successor
    relative to the row id implied by ``indptr`` — which here is the *local*
    id.  Re-basing the first-entry gaps onto the global row id keeps the
    web-graph locality win (successors cluster near their own row) intact
    for every shard, not just the first.
    """
    gaps = to_gaps(local_indptr, indices)
    counts = np.diff(local_indptr)
    starts = local_indptr[:-1][counts > 0]
    if starts.size and row_start:
        gaps[starts] = zigzag_encode(zigzag_decode(gaps[starts]) - row_start)
    return encode_varints(gaps)


def _decode_block(
    payload: bytes | np.ndarray,
    local_indptr: np.ndarray,
    *,
    row_start: int,
    n_edges: int,
) -> np.ndarray:
    """Invert :func:`_encode_block`, returning global column indices."""
    gaps = decode_varints(payload, count=n_edges)
    counts = np.diff(local_indptr)
    starts = local_indptr[:-1][counts > 0]
    if starts.size and row_start:
        gaps = gaps.copy()
        gaps[starts] = zigzag_encode(zigzag_decode(gaps[starts]) + row_start)
    return from_gaps(local_indptr, gaps)


class ShardedStoreWriter:
    """Append row blocks in order, then :meth:`finalize` the manifest.

    Blocks must cover ``[0, n_sources)`` contiguously.  The writer never
    holds more than the block being appended, so converting or generating a
    multi-million-row graph stays O(block) in memory.
    """

    def __init__(
        self,
        directory: str | Path,
        n_sources: int,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        n_sources = int(n_sources)
        block_size = int(block_size)
        if n_sources <= 0:
            raise GraphError(f"store needs at least one source, got {n_sources}")
        if block_size <= 0:
            raise GraphError(f"block_size must be positive, got {block_size}")
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._n = n_sources
        self._block_size = block_size
        self._shards: list[ShardInfo] = []
        self._rows_written = 0
        self._edges_written = 0
        self._weighted: bool | None = None
        self._finalized = False

    @property
    def rows_written(self) -> int:
        return self._rows_written

    def append_block(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray | None = None,
    ) -> ShardInfo:
        """Encode and publish one shard covering the next rows in order.

        ``indptr`` is block-local (``indptr[0] == 0``); ``indices`` are
        global column ids, sorted strictly increasing within each row.
        """
        if self._finalized:
            raise GraphError("writer already finalized")
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 2 or indptr[0] != 0:
            raise GraphError("block indptr must be 1-D, local, and non-empty")
        if (np.diff(indptr) < 0).any():
            raise GraphError("block indptr must be non-decreasing")
        if int(indptr[-1]) != indices.size:
            raise GraphError(
                f"block indptr expects {int(indptr[-1])} edges, got {indices.size}"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= self._n):
            raise GraphError(
                f"block column indices must lie in [0, {self._n})"
            )
        n_rows = indptr.size - 1
        row_start = self._rows_written
        row_stop = row_start + n_rows
        if row_stop > self._n:
            raise GraphError(
                f"block rows [{row_start}, {row_stop}) overflow store of "
                f"{self._n} sources"
            )
        weighted = data is not None
        if self._weighted is None:
            self._weighted = weighted
        elif self._weighted != weighted:
            raise GraphError("cannot mix weighted and unweighted blocks")
        if weighted:
            data = np.ascontiguousarray(data, dtype=np.float64)
            if data.shape != indices.shape:
                raise GraphError(
                    f"block data length {data.size} != edge count {indices.size}"
                )

        payload = _encode_block(indptr, indices, row_start=row_start)
        arrays = {
            "payload": np.frombuffer(payload, dtype=np.uint8),
            "counts": np.diff(indptr),
        }
        if weighted:
            arrays["data"] = data
        chunks, digest = pack(
            {"format_version": STORE_FORMAT_VERSION, "row_start": row_start}, arrays
        )
        block_id = len(self._shards)
        # Named after its content, so no write can touch a file that the
        # live manifest names.
        filename = f"shard-{block_id:05d}-{digest[:16]}"
        publish(self._dir / filename, chunks)
        info = ShardInfo(
            block_id=block_id,
            row_start=row_start,
            row_stop=row_stop,
            n_edges=int(indices.size),
            filename=filename,
            digest=digest,
            payload_bytes=len(payload),
        )
        self._shards.append(info)
        self._rows_written = row_stop
        self._edges_written += int(indices.size)
        return info

    def append_matrix(self, matrix: sp.csr_matrix) -> ShardInfo:
        """Append one shard from a CSR slice of shape ``(rows, n_sources)``."""
        block = matrix.tocsr()
        if block.shape[1] != self._n:
            raise GraphError(
                f"block has {block.shape[1]} columns, store expects {self._n}"
            )
        block.sum_duplicates()
        block.sort_indices()
        return self.append_block(
            block.indptr.astype(np.int64),
            block.indices.astype(np.int64),
            block.data.astype(np.float64),
        )

    def finalize(self, *, meta: dict | None = None) -> "ShardedGraphStore":
        """Publish the manifest and reopen the finished store.

        The manifest publish is the commit point: until it lands, the
        directory's previous store (if any) stays whole.  Shard files the
        new manifest does not name are deleted after it.
        """
        if self._finalized:
            raise GraphError("writer already finalized")
        if self._rows_written != self._n:
            raise GraphError(
                f"store covers rows [0, {self._rows_written}) but declares "
                f"{self._n} sources"
            )
        manifest = {
            "format_version": STORE_FORMAT_VERSION,
            "n_sources": self._n,
            "n_edges": self._edges_written,
            "block_size": self._block_size,
            "weighted": bool(self._weighted),
            "meta": dict(meta or {}),
            "shards": [info.to_json() for info in self._shards],
        }
        text = json.dumps(manifest, indent=2) + "\n"
        publish(self._dir / MANIFEST_NAME, [text.encode("utf-8")])
        self._finalized = True
        named = {info.filename for info in self._shards}
        for path in self._dir.glob("shard-*"):
            if path.name not in named:
                remove(path)
        return ShardedGraphStore.open(self._dir)


class ShardedGraphStore:
    """Read side of the sharded format: manifest + independently decodable blocks."""

    def __init__(self, directory: Path, manifest: dict, shards: tuple[ShardInfo, ...]):
        self._dir = directory
        self._manifest = manifest
        self._shards = shards
        self._stats: tuple[np.ndarray, np.ndarray] | None = None

    # -- opening ---------------------------------------------------------

    @staticmethod
    def open(directory: str | Path) -> "ShardedGraphStore":
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.is_file():
            raise GraphError(f"no graph-store manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            _record_reject("manifest_unreadable")
            raise CodecError(f"unreadable store manifest {manifest_path}: {exc}") from exc
        version = manifest.get("format_version")
        if version != STORE_FORMAT_VERSION:
            _record_reject("format_version")
            raise CodecError(
                f"store manifest format_version {version!r} unsupported "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        shards = tuple(ShardInfo.from_json(rec) for rec in manifest.get("shards", []))
        n = int(manifest.get("n_sources", 0))
        if n <= 0 or not shards:
            raise CodecError("store manifest declares no sources or no shards")
        cursor = 0
        for info in shards:
            if info.row_start != cursor or info.row_stop <= info.row_start:
                raise CodecError(
                    f"shard {info.block_id} covers rows "
                    f"[{info.row_start}, {info.row_stop}), expected start {cursor}"
                )
            cursor = info.row_stop
        if cursor != n:
            raise CodecError(
                f"shards cover rows [0, {cursor}) but manifest declares {n} sources"
            )
        return ShardedGraphStore(directory, manifest, shards)

    # -- metadata --------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def n_sources(self) -> int:
        return int(self._manifest["n_sources"])

    @property
    def n_edges(self) -> int:
        return int(self._manifest["n_edges"])

    @property
    def n_blocks(self) -> int:
        return len(self._shards)

    @property
    def block_size(self) -> int:
        return int(self._manifest["block_size"])

    @property
    def weighted(self) -> bool:
        return bool(self._manifest["weighted"])

    @property
    def shards(self) -> tuple[ShardInfo, ...]:
        return self._shards

    @property
    def payload_bytes(self) -> int:
        return sum(info.payload_bytes for info in self._shards)

    @property
    def meta(self) -> dict:
        return dict(self._manifest.get("meta", {}))

    # -- block access ----------------------------------------------------

    def load_block(self, block_id: int) -> sp.csr_matrix:
        """Decode one shard to a CSR block of shape ``(n_rows, n_sources)``.

        Touches exactly one file, whose digest is checked against the
        manifest before anything in it is parsed.  Any failure raises
        :class:`CodecError` after bumping ``repro_store_rejects_total``.
        """
        if not 0 <= block_id < len(self._shards):
            raise GraphError(
                f"block {block_id} out of range for store with "
                f"{len(self._shards)} blocks"
            )
        info = self._shards[block_id]
        path = self._dir / info.filename
        try:
            shard = read_container(path)
            if shard.digest != info.digest:
                raise CodecError(
                    f"shard {path} failed digest verification against the manifest",
                    reason="digest",
                )
        except CodecError as exc:
            _record_reject(exc.reason)
            log.warning("rejecting shard %s: %s", path, exc)
            raise
        version = shard.fields.get("format_version")
        row_start = shard.fields.get("row_start")
        if version != STORE_FORMAT_VERSION or row_start != info.row_start:
            _record_reject("format_version")
            raise CodecError(
                f"shard {path} header mismatch (version={version}, "
                f"row_start={row_start})"
            )
        payload = shard.arrays.get("payload")
        counts = shard.arrays.get("counts")
        data = shard.arrays.get("data")
        if (
            payload is None
            or counts is None
            or counts.shape != (info.n_rows,)
            or int(counts.sum()) != info.n_edges
        ):
            _record_reject("structure")
            raise CodecError(f"shard {path} row/edge counts disagree with manifest")
        counts = np.asarray(counts, dtype=np.int64)
        local_indptr = np.zeros(info.n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=local_indptr[1:])
        try:
            indices = _decode_block(
                payload, local_indptr, row_start=info.row_start, n_edges=info.n_edges
            )
        except CodecError:
            _record_reject("structure")
            raise
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_sources):
            _record_reject("structure")
            raise CodecError(f"shard {path} decoded out-of-range column indices")
        if data is None:
            # Unweighted store: uniform random-walk weights, dangling rows
            # stay all-zero (handled downstream by the dangling mask).
            with np.errstate(divide="ignore"):
                inv = np.where(counts > 0, 1.0 / counts, 0.0)
            data = np.repeat(inv, counts)
        else:
            data = np.asarray(data, dtype=np.float64)
            if data.shape != (info.n_edges,):
                _record_reject("structure")
                raise CodecError(f"shard {path} weight count disagrees with manifest")
        return sp.csr_matrix(
            (data, indices, local_indptr), shape=(info.n_rows, self.n_sources)
        )

    def iter_blocks(self) -> Iterator[tuple[ShardInfo, sp.csr_matrix]]:
        for info in self._shards:
            yield info, self.load_block(info.block_id)

    def verify(self) -> None:
        """Decode and digest-check every shard; raises on the first bad one."""
        for _info, _block in self.iter_blocks():
            pass

    # -- whole-graph escapes --------------------------------------------

    def materialize(self) -> sp.csr_matrix:
        """Assemble the full CSR (O(matrix) memory — escape hatch only)."""
        indptr = np.zeros(self.n_sources + 1, dtype=np.int64)
        indices = np.empty(self.n_edges, dtype=np.int64)
        data = np.empty(self.n_edges, dtype=np.float64)
        edge = 0
        for info, block in self.iter_blocks():
            stop = edge + info.n_edges
            indices[edge:stop] = block.indices
            data[edge:stop] = block.data
            indptr[info.row_start + 1 : info.row_stop + 1] = edge + (
                block.indptr[1:].astype(np.int64)
            )
            edge = stop
        return sp.csr_matrix(
            (data, indices, indptr), shape=(self.n_sources, self.n_sources)
        )

    def row_sums(self) -> np.ndarray:
        """Per-row weight sums, computed in one streaming pass and cached."""
        return self._streamed_stats()[0].copy()

    def diagonal(self) -> np.ndarray:
        """Main diagonal, computed in the same streaming pass as row sums."""
        return self._streamed_stats()[1].copy()

    def _streamed_stats(self) -> tuple[np.ndarray, np.ndarray]:
        if self._stats is None:
            sums = np.empty(self.n_sources, dtype=np.float64)
            diag = np.zeros(self.n_sources, dtype=np.float64)
            for info, block in self.iter_blocks():
                sl = slice(info.row_start, info.row_stop)
                sums[sl] = np.asarray(block.sum(axis=1)).ravel()
                rows = np.arange(info.n_rows, dtype=np.int64)
                cols = rows + info.row_start
                # Extract block[r, row_start + r] without fancy CSR indexing:
                # positions where the stored column equals the global row id.
                row_of = np.repeat(rows, np.diff(block.indptr))
                hits = block.indices == cols[row_of]
                if hits.any():
                    np.add.at(diag, row_of[hits] + info.row_start, block.data[hits])
            self._stats = (sums, diag)
        return self._stats

    # -- conversions -----------------------------------------------------

    @staticmethod
    def from_matrix(
        matrix: sp.spmatrix,
        directory: str | Path,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        meta: dict | None = None,
    ) -> "ShardedGraphStore":
        """Shard a square weighted matrix (e.g. a row-stochastic ``T'``)."""
        csr = matrix.tocsr()
        if csr.shape[0] != csr.shape[1]:
            raise GraphError(f"graph store expects a square matrix, got {csr.shape}")
        n = csr.shape[0]
        writer = ShardedStoreWriter(directory, n, block_size=block_size)
        for lo in range(0, n, int(block_size)):
            hi = min(lo + int(block_size), n)
            writer.append_matrix(csr[lo:hi])
        return writer.finalize(meta=meta)

    @staticmethod
    def from_pagegraph(
        graph: "PageGraph",
        directory: str | Path,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        meta: dict | None = None,
    ) -> "ShardedGraphStore":
        """Shard a structure-only graph; blocks decode with uniform weights."""
        indptr = np.asarray(graph.indptr, dtype=np.int64)
        indices = np.asarray(graph.indices, dtype=np.int64)
        n = graph.n_nodes
        writer = ShardedStoreWriter(directory, n, block_size=block_size)
        for lo in range(0, n, int(block_size)):
            hi = min(lo + int(block_size), n)
            local = indptr[lo : hi + 1] - indptr[lo]
            writer.append_block(local, indices[indptr[lo] : indptr[hi]])
        return writer.finalize(meta=meta)

    def describe(self) -> dict:
        """Summary dict for ``repro shard info`` and tests."""
        return {
            "directory": str(self._dir),
            "format_version": STORE_FORMAT_VERSION,
            "n_sources": self.n_sources,
            "n_edges": self.n_edges,
            "n_blocks": self.n_blocks,
            "block_size": self.block_size,
            "weighted": self.weighted,
            "payload_bytes": self.payload_bytes,
            "bits_per_edge": (
                8.0 * self.payload_bytes / self.n_edges if self.n_edges else math.nan
            ),
        }
