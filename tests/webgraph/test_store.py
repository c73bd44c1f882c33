"""Tests for the sharded on-disk graph store."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.container import read_container, write_container
from repro.errors import CodecError, GraphError
from repro.graph import PageGraph
from repro.webgraph.store import (
    MANIFEST_NAME,
    ShardedGraphStore,
    ShardedStoreWriter,
)


def _stochastic(n: int, density: float, seed: int) -> sp.csr_matrix:
    """A row-(sub)stochastic random CSR with some dangling rows."""
    m = sp.random(n, n, density=density, random_state=seed, format="csr")
    sums = np.asarray(m.sum(axis=1)).ravel()
    scale = np.where(sums > 0, 1.0 / np.where(sums > 0, sums, 1.0), 0.0)
    out = (sp.diags(scale) @ m).tocsr()
    out.sort_indices()
    return out


def _rewrite_shard(
    store: ShardedGraphStore, block_id: int, *, reseal: bool = False, **edits
) -> ShardedGraphStore:
    """Re-save one shard with ``edits[name](value)`` applied to its fields
    and arrays, and return the store reopened.

    The manifest keeps the shard's old digest, so loads fail on it, unless
    ``reseal`` records the new one: then loads reach the structural checks.
    """
    path = store.directory / store.shards[block_id].filename
    fields, arrays, _digest = read_container(path)
    fields, arrays = dict(fields), dict(arrays)
    for name, edit in edits.items():
        values = fields if name in fields else arrays
        values[name] = edit(values[name])
    digest = write_container(path, fields, arrays)
    if reseal:
        manifest_path = store.directory / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"][block_id]["digest"] = digest
        manifest_path.write_text(json.dumps(manifest))
    return ShardedGraphStore.open(store.directory)


def _assert_same_structure(store: ShardedGraphStore, graph: PageGraph) -> None:
    back = store.materialize()
    assert back.shape == (graph.n_nodes, graph.n_nodes)
    np.testing.assert_array_equal(back.indptr, graph.indptr)
    np.testing.assert_array_equal(back.indices, graph.indices)


@pytest.fixture(scope="module")
def matrix() -> sp.csr_matrix:
    return _stochastic(97, 0.05, seed=11)


@pytest.fixture()
def store(matrix, tmp_path) -> ShardedGraphStore:
    return ShardedGraphStore.from_matrix(
        matrix, tmp_path / "store", block_size=16, meta={"origin": "test"}
    )


@pytest.fixture(scope="module")
def page_graph() -> PageGraph:
    """800 pages with 8,000 random links (duplicates collapse)."""
    gen = np.random.default_rng(7)
    n = 800
    return PageGraph.from_edges(
        gen.integers(0, n, 8000), gen.integers(0, n, 8000), n
    )


class TestRoundtrip:
    def test_materialize_is_exact(self, matrix, store):
        back = store.materialize()
        assert (back != matrix).nnz == 0
        np.testing.assert_array_equal(back.indices, matrix.indices)
        np.testing.assert_array_equal(back.data, matrix.data)

    def test_blocks_partition_rows(self, matrix, store):
        cursor = 0
        for info in store.shards:
            assert info.row_start == cursor
            cursor = info.row_stop
        assert cursor == matrix.shape[0]

    def test_each_block_decodes_independently(self, matrix, store):
        for info in store.shards:
            block = store.load_block(info.block_id)
            expected = matrix[info.row_start : info.row_stop]
            assert (block != expected).nnz == 0

    def test_streamed_stats_match(self, matrix, store):
        np.testing.assert_allclose(
            store.row_sums(), np.asarray(matrix.sum(axis=1)).ravel(), atol=1e-12
        )
        np.testing.assert_allclose(
            store.diagonal(), matrix.diagonal(), atol=1e-12
        )

    def test_describe_and_meta(self, matrix, store):
        desc = store.describe()
        assert desc["n_sources"] == matrix.shape[0]
        assert desc["n_edges"] == matrix.nnz
        assert desc["weighted"] is True
        assert desc["bits_per_edge"] > 0
        assert store.meta == {"origin": "test"}

    def test_verify_clean_store(self, store):
        store.verify()

    def test_resharding_in_place_keeps_only_named_shards(self, matrix, store):
        again = ShardedGraphStore.from_matrix(matrix, store.directory, block_size=32)
        assert again.n_blocks != store.n_blocks
        names = {path.name for path in store.directory.iterdir()}
        assert names == {MANIFEST_NAME} | {info.filename for info in again.shards}
        assert (again.materialize() != matrix).nnz == 0

    def test_unweighted_pagegraph_store(self, tmp_path):
        gen = np.random.default_rng(5)
        n = 60
        graph = PageGraph.from_edges(
            gen.integers(0, n, 400), gen.integers(0, n, 400), n
        )
        st = ShardedGraphStore.from_pagegraph(
            graph, tmp_path / "pg", block_size=13
        )
        assert not st.weighted
        back = st.materialize()
        # Uniform 1/outdeg rows; dangling rows stay all-zero.
        outdeg = np.diff(graph.indptr)
        sums = np.asarray(back.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums[outdeg > 0], 1.0, atol=1e-12)
        np.testing.assert_array_equal(sums[outdeg == 0], 0.0)
        np.testing.assert_array_equal(back.indices, graph.indices)


class TestPageGraphCodec:
    """Structure-only stores: the gap + varint codec on a page graph."""

    @pytest.mark.parametrize("block_size", [1, 7, 4096])
    def test_exact_roundtrip(self, page_graph, tmp_path, block_size):
        store = ShardedGraphStore.from_pagegraph(
            page_graph, tmp_path / "pg", block_size=block_size
        )
        assert store.n_blocks == -(-page_graph.n_nodes // block_size)
        _assert_same_structure(store, page_graph)

    def test_counts_match(self, page_graph, tmp_path):
        ShardedGraphStore.from_pagegraph(page_graph, tmp_path / "pg", block_size=64)
        store = ShardedGraphStore.open(tmp_path / "pg")
        assert store.n_sources == page_graph.n_nodes
        assert store.n_edges == page_graph.n_edges
        indptr = page_graph.indptr
        for info in store.shards:
            assert info.n_edges == indptr[info.row_stop] - indptr[info.row_start]

    @pytest.mark.parametrize(
        "graph",
        [PageGraph.empty(10), PageGraph.from_edges([3], [7], 10)],
        ids=["empty", "single-edge"],
    )
    def test_small_graph_roundtrip(self, graph, tmp_path):
        store = ShardedGraphStore.from_pagegraph(graph, tmp_path / "pg")
        assert store.n_edges == graph.n_edges
        _assert_same_structure(store, graph)

    def test_payload_beats_csr(self, page_graph, tmp_path):
        store = ShardedGraphStore.from_pagegraph(page_graph, tmp_path / "pg")
        csr_bytes = 8 * (page_graph.n_nodes + 1) + 8 * page_graph.n_edges
        count_bytes = 8 * page_graph.n_nodes  # one int64 edge count per row
        assert store.payload_bytes + count_bytes < 0.6 * csr_bytes
        assert 0 < store.describe()["bits_per_edge"] < 64

    def test_size_fields(self, page_graph, tmp_path):
        store = ShardedGraphStore.from_pagegraph(
            page_graph, tmp_path / "pg", block_size=64
        )
        for info in store.shards:
            shard = read_container(store.directory / info.filename)
            assert shard.arrays["payload"].size == info.payload_bytes
        summary = store.describe()
        assert summary["n_edges"] == page_graph.n_edges
        assert summary["payload_bytes"] == sum(
            info.payload_bytes for info in store.shards
        )

    def test_describe_reports_bits_per_edge(self, page_graph, tmp_path):
        store = ShardedGraphStore.from_pagegraph(page_graph, tmp_path / "pg")
        assert store.describe()["bits_per_edge"] == pytest.approx(
            8.0 * store.payload_bytes / page_graph.n_edges
        )
        empty = ShardedGraphStore.from_pagegraph(
            PageGraph.empty(10), tmp_path / "empty"
        )
        assert math.isnan(empty.describe()["bits_per_edge"])


class TestIntegrity:
    def test_tampered_weights_fail_digest(self, matrix, store):
        _rewrite_shard(store, 0, data=lambda data: data * 1.01)
        with pytest.raises(CodecError, match="digest"):
            store.load_block(0)
        # Resealed into the manifest, the same bytes load as written.
        resealed = _rewrite_shard(store, 0, reseal=True)
        info = resealed.shards[0]
        np.testing.assert_allclose(
            resealed.load_block(0).data,
            matrix[info.row_start : info.row_stop].data * 1.01,
        )

    def test_tampered_payload_fails_digest(self, store):
        def flip_first_bit(payload):
            payload = payload.copy()
            payload[0] ^= 0x01
            return payload

        _rewrite_shard(store, 1, payload=flip_first_bit)
        with pytest.raises(CodecError):
            store.load_block(1)

    def test_truncated_payload_rejected(self, page_graph, tmp_path):
        store = ShardedGraphStore.from_pagegraph(
            page_graph, tmp_path / "pg", block_size=256
        )
        n_edges = store.shards[0].n_edges
        _rewrite_shard(store, 0, payload=lambda payload: payload[:-1])
        with pytest.raises(CodecError, match="digest"):
            store.load_block(0)
        # Resealed, the varint decoder still counts one value short.
        resealed = _rewrite_shard(store, 0, reseal=True)
        with pytest.raises(
            CodecError,
            match=f"expected {n_edges} values, stream holds {n_edges - 1}",
        ):
            resealed.load_block(0)

    def test_counts_disagreeing_with_manifest_rejected(self, store):
        def one_more_edge(counts):
            counts = counts.copy()
            counts[-1] += 1
            return counts

        tampered = _rewrite_shard(store, 0, reseal=True, counts=one_more_edge)
        with pytest.raises(CodecError, match="disagree with manifest"):
            tampered.load_block(0)

    def test_counts_of_wrong_length_rejected(self, store):
        # Same edge total, one row short: the per-row counts index the block.
        def merge_last_two_rows(counts):
            return np.append(counts[:-2], counts[-2] + counts[-1])

        tampered = _rewrite_shard(store, 0, reseal=True, counts=merge_last_two_rows)
        with pytest.raises(CodecError, match="disagree with manifest"):
            tampered.load_block(0)

    def test_bad_shard_version(self, store):
        tampered = _rewrite_shard(store, 0, reseal=True, format_version=lambda _: 99)
        with pytest.raises(CodecError, match="version=99"):
            tampered.load_block(0)

    def test_corrupt_shard_file_rejected(self, store):
        path = store.directory / store.shards[0].filename
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CodecError, match="digest"):
            store.load_block(0)

    def test_missing_shard_file(self, store):
        (store.directory / store.shards[0].filename).unlink()
        with pytest.raises(CodecError, match="unreadable"):
            store.load_block(0)

    def test_bad_manifest_version(self, store):
        path = store.directory / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 999
        path.write_text(json.dumps(manifest))
        with pytest.raises(CodecError, match="format_version"):
            ShardedGraphStore.open(store.directory)

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(GraphError, match="manifest"):
            ShardedGraphStore.open(tmp_path / "nope")

    def test_block_id_out_of_range(self, store):
        with pytest.raises(GraphError, match="out of range"):
            store.load_block(store.n_blocks)


class TestWriterValidation:
    def test_indptr_must_be_local(self, tmp_path):
        w = ShardedStoreWriter(tmp_path / "s", 10, block_size=4)
        with pytest.raises(GraphError, match="local"):
            w.append_block(np.array([3, 5]), np.array([1, 2]))

    def test_indptr_must_be_nondecreasing(self, tmp_path):
        w = ShardedStoreWriter(tmp_path / "s", 10, block_size=4)
        with pytest.raises(GraphError, match="non-decreasing"):
            w.append_block(np.array([0, 2, 1]), np.array([1, 2]))

    def test_edge_count_mismatch(self, tmp_path):
        w = ShardedStoreWriter(tmp_path / "s", 10, block_size=4)
        with pytest.raises(GraphError, match="edges"):
            w.append_block(np.array([0, 3]), np.array([1, 2]))

    def test_columns_out_of_range(self, tmp_path):
        w = ShardedStoreWriter(tmp_path / "s", 10, block_size=4)
        with pytest.raises(GraphError, match="column"):
            w.append_block(np.array([0, 1]), np.array([10]))

    def test_row_overflow(self, tmp_path):
        w = ShardedStoreWriter(tmp_path / "s", 2, block_size=4)
        with pytest.raises(GraphError, match="overflow"):
            w.append_block(np.array([0, 0, 0, 0]), np.array([], dtype=np.int64))

    def test_cannot_mix_weighted_and_unweighted(self, tmp_path):
        w = ShardedStoreWriter(tmp_path / "s", 10, block_size=4)
        w.append_block(np.array([0, 1]), np.array([1]), np.array([1.0]))
        with pytest.raises(GraphError, match="mix"):
            w.append_block(np.array([0, 1]), np.array([2]))

    def test_data_length_mismatch(self, tmp_path):
        w = ShardedStoreWriter(tmp_path / "s", 10, block_size=4)
        with pytest.raises(GraphError, match="data length"):
            w.append_block(np.array([0, 2]), np.array([1, 2]), np.array([1.0]))

    def test_finalize_requires_full_coverage(self, tmp_path):
        w = ShardedStoreWriter(tmp_path / "s", 10, block_size=4)
        w.append_block(np.array([0, 1]), np.array([1]))
        with pytest.raises(GraphError, match="declares"):
            w.finalize()

    def test_finalized_writer_rejects_appends(self, tmp_path, matrix):
        n = matrix.shape[0]
        w = ShardedStoreWriter(tmp_path / "s", n, block_size=n)
        w.append_matrix(matrix)
        w.finalize()
        with pytest.raises(GraphError, match="finalized"):
            w.append_matrix(matrix)
        with pytest.raises(GraphError, match="finalized"):
            w.finalize()

    def test_from_matrix_rejects_nonsquare(self, tmp_path):
        with pytest.raises(GraphError, match="square"):
            ShardedGraphStore.from_matrix(
                sp.random(4, 5, format="csr"), tmp_path / "s"
            )

    def test_bad_construction(self, tmp_path):
        with pytest.raises(GraphError):
            ShardedStoreWriter(tmp_path / "s", 0)
        with pytest.raises(GraphError):
            ShardedStoreWriter(tmp_path / "s", 5, block_size=0)
