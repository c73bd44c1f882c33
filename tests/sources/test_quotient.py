"""Unit + property tests for the quotient-graph kernels."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SourceAssignmentError
from repro.graph import PageGraph
from repro.sources import (
    SourceAssignment,
    quotient_edge_counts,
    quotient_unique_page_counts,
)


def _web(edges, n_pages, mapping):
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return (
        PageGraph.from_edges(src, dst, n_pages),
        SourceAssignment(np.asarray(mapping, dtype=np.int64)),
    )


class TestEdgeCounts:
    def test_simple(self):
        # pages 0,1 in source 0; page 2 in source 1.
        g, a = _web([(0, 2), (1, 2), (0, 1)], 3, [0, 0, 1])
        m = quotient_edge_counts(g, a)
        assert m[0, 1] == 2
        assert m[0, 0] == 1  # intra edge 0->1

    def test_exclude_intra(self):
        g, a = _web([(0, 1), (0, 2)], 3, [0, 0, 1])
        m = quotient_edge_counts(g, a, include_intra=False)
        assert m[0, 0] == 0
        assert m[0, 1] == 1

    def test_empty_graph(self):
        g = PageGraph.empty(3)
        a = SourceAssignment(np.array([0, 0, 1]))
        m = quotient_edge_counts(g, a)
        assert m.nnz == 0

    def test_mismatched_sizes_rejected(self, small_graph):
        a = SourceAssignment(np.array([0, 1]))
        with pytest.raises(SourceAssignmentError):
            quotient_edge_counts(small_graph, a)

    def test_total_edges_conserved(self, small_graph, small_assignment):
        m = quotient_edge_counts(small_graph, small_assignment)
        assert m.sum() == small_graph.n_edges


class TestUniquePageCounts:
    def test_consensus_collapses_page_fanout(self):
        """One page linking to 3 pages of the same target counts once."""
        g, a = _web([(0, 2), (0, 3), (0, 4)], 5, [0, 0, 1, 1, 1])
        m = quotient_unique_page_counts(g, a)
        assert m[0, 1] == 1

    def test_distinct_pages_accumulate(self):
        """Section 3.2: many unique pages = stronger consensus."""
        g, a = _web([(0, 3), (1, 3), (2, 4)], 5, [0, 0, 0, 1, 1])
        m = quotient_unique_page_counts(g, a)
        assert m[0, 1] == 3

    def test_page_counts_multiple_targets(self):
        """A page linking to two *different* sources counts once per source."""
        g, a = _web([(0, 1), (0, 2)], 3, [0, 1, 2])
        m = quotient_unique_page_counts(g, a)
        assert m[0, 1] == 1
        assert m[0, 2] == 1

    def test_never_exceeds_edge_counts(self, small_graph, small_assignment):
        raw = quotient_edge_counts(small_graph, small_assignment)
        consensus = quotient_unique_page_counts(small_graph, small_assignment)
        diff = (raw - consensus).tocoo()
        assert (diff.data >= 0).all()

    def test_bounded_by_source_size(self, small_graph, small_assignment):
        """w(s_i, s_j) can never exceed the number of pages in s_i."""
        m = quotient_unique_page_counts(small_graph, small_assignment).tocoo()
        sizes = small_assignment.source_sizes
        assert (m.data <= sizes[m.row]).all()

    def test_exclude_intra(self):
        g, a = _web([(0, 1)], 2, [0, 0])
        m = quotient_unique_page_counts(g, a, include_intra=False)
        assert m.nnz == 0

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_identity_assignment_equals_binary_adjacency(self, data):
        """With one page per source, consensus quotient == page adjacency."""
        n = data.draw(st.integers(min_value=2, max_value=12))
        edges = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=40,
            )
        )
        src = np.array([e[0] for e in edges] or [], dtype=np.int64)
        dst = np.array([e[1] for e in edges] or [], dtype=np.int64)
        g = PageGraph.from_edges(src, dst, n)
        a = SourceAssignment.identity(n)
        m = quotient_unique_page_counts(g, a)
        adj = g.to_scipy()
        assert (m != adj).nnz == 0


def _reference_counts(edges, labels, include_intra):
    """Pure-Python quotient: (edge multiplicities, unique-page counts).

    Both map ``(origin source, target source)`` to a positive count.
    """
    multiplicity: Counter = Counter()
    linking = set()  # distinct (page, target source) pairs
    for page, target in set(edges):  # the page graph de-duplicates links
        pair = (labels[page], labels[target])
        if include_intra or pair[0] != pair[1]:
            multiplicity[pair] += 1
            linking.add((page, pair[1]))
    unique = Counter((labels[page], source) for page, source in linking)
    return dict(multiplicity), dict(unique)


def _entries(matrix, n_sources):
    """Stored entries of a canonical int64 CSR quotient, as a dict."""
    assert isinstance(matrix, sp.csr_matrix)
    assert matrix.shape == (n_sources, n_sources)
    assert matrix.dtype == np.int64
    assert matrix.has_canonical_format
    coo = matrix.tocoo()
    return {
        (int(i), int(j)): int(v) for i, j, v in zip(coo.row, coo.col, coo.data)
    }


@st.composite
def page_webs(draw):
    """``(n_pages, edges, labels)`` with sources scattered over page ids."""
    n_pages = draw(st.integers(min_value=1, max_value=12))
    n_sources = draw(st.integers(min_value=1, max_value=n_pages))
    extra = n_pages - n_sources
    labels = list(range(n_sources)) + draw(
        st.lists(
            st.integers(min_value=0, max_value=n_sources - 1),
            min_size=extra,
            max_size=extra,
        )
    )
    labels = draw(st.permutations(labels))
    page = st.integers(min_value=0, max_value=n_pages - 1)
    edges = draw(st.lists(st.tuples(page, page), max_size=40))
    return n_pages, edges, labels


#: Page 0 (source 1) links four pages of source 0 and two of source 2.
_FAN_OUT = (
    7,
    [(0, 1), (0, 3), (0, 4), (0, 6), (0, 2), (0, 5), (3, 0)],
    [1, 0, 2, 0, 0, 2, 0],
)
#: Five of six pages have empty rows; pages 0, 2, 3 and 5 are isolated.
_SPARSE = (6, [(4, 1)], [2, 0, 1, 0, 2, 1])
#: A single source: every link is intra-source.
_ONE_SOURCE = (4, [(0, 1), (0, 2), (3, 3), (1, 0)], [0, 0, 0, 0])


class TestAgainstBruteForce:
    """Both kernels equal a pure-Python count, entry for entry."""

    @given(web=page_webs(), include_intra=st.booleans())
    @settings(max_examples=200, deadline=None)
    @example(web=_FAN_OUT, include_intra=True)
    @example(web=_FAN_OUT, include_intra=False)
    @example(web=_SPARSE, include_intra=True)
    @example(web=_ONE_SOURCE, include_intra=True)
    @example(web=_ONE_SOURCE, include_intra=False)
    @example(web=(0, [], []), include_intra=True)
    def test_matches_reference(self, web, include_intra):
        n_pages, edges, labels = web
        g, a = _web(edges, n_pages, labels)
        multiplicity, unique = _reference_counts(edges, labels, include_intra)
        counts = quotient_edge_counts(g, a, include_intra=include_intra)
        consensus = quotient_unique_page_counts(
            g, a, include_intra=include_intra
        )
        assert _entries(counts, a.n_sources) == multiplicity
        assert _entries(consensus, a.n_sources) == unique
