"""Micro-benchmarks of the substrate layers.

Not a paper artifact — these keep the hot paths honest over time:
graph construction, shard-store encode/decode, the consensus quotient,
the throttle transform, and one full PageRank solve.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RankingParams
from repro.datasets import load_dataset
from repro.graph import PageGraph, transition_matrix
from repro.ranking import pagerank
from repro.sources import SourceGraph, quotient_unique_page_counts
from repro.throttle import ThrottleVector, throttle_transform
from repro.webgraph import ShardedGraphStore


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("uk2002_like", with_spam=False)


def test_bench_graph_from_edges(benchmark, dataset):
    src, dst = dataset.graph.edge_arrays()
    benchmark(PageGraph.from_edges, src, dst, dataset.graph.n_nodes)


def test_bench_compress(benchmark, dataset, tmp_path):
    graph = dataset.graph
    store = benchmark(ShardedGraphStore.from_pagegraph, graph, tmp_path / "store")
    csr_bytes = 8 * (graph.n_nodes + 1) + 8 * graph.n_edges
    count_bytes = 8 * graph.n_nodes  # one int64 edge count per row
    assert (store.payload_bytes + count_bytes) / csr_bytes < 0.6


def test_bench_decompress(benchmark, dataset, tmp_path):
    store = ShardedGraphStore.from_pagegraph(dataset.graph, tmp_path / "store")
    matrix = benchmark(store.materialize)
    np.testing.assert_array_equal(matrix.indptr, dataset.graph.indptr)
    np.testing.assert_array_equal(matrix.indices, dataset.graph.indices)


def test_bench_consensus_quotient(benchmark, dataset):
    counts = benchmark(
        quotient_unique_page_counts, dataset.graph, dataset.assignment
    )
    assert counts.nnz > 0


def test_bench_source_graph_build(benchmark, dataset):
    sg = benchmark(
        SourceGraph.from_page_graph, dataset.graph, dataset.assignment
    )
    assert sg.n_sources == dataset.n_sources


def test_bench_throttle_transform(benchmark, dataset):
    sg = SourceGraph.from_page_graph(dataset.graph, dataset.assignment)
    rng = np.random.default_rng(0)
    kappa = ThrottleVector(rng.random(sg.n_sources))
    out = benchmark(throttle_transform, sg.matrix, kappa)
    assert out.shape == sg.matrix.shape


def test_bench_pagerank_full_solve(benchmark, dataset, once):
    result = once(benchmark, pagerank, dataset.graph, RankingParams())
    assert result.convergence.converged
