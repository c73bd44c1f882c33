"""Unit tests for :mod:`repro.graph.io`."""

from __future__ import annotations

import io

import pytest

from repro.errors import GraphError
from repro.graph import (
    PageGraph,
    read_edge_list,
    read_labeled_edges,
    write_edge_list,
)


class TestEdgeListIO:
    def test_roundtrip_via_file(self, small_graph, tmp_path):
        path = tmp_path / "graph.tsv"
        write_edge_list(small_graph, path)
        again = read_edge_list(path, n_nodes=small_graph.n_nodes)
        assert again == small_graph

    def test_roundtrip_via_handle(self, small_graph):
        buf = io.StringIO()
        write_edge_list(small_graph, buf)
        buf.seek(0)
        again = read_edge_list(buf, n_nodes=small_graph.n_nodes)
        assert again == small_graph

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n0 1\n1 2\n"
        g = read_edge_list(io.StringIO(text))
        assert g.n_edges == 2

    def test_custom_separator(self):
        g = read_edge_list(io.StringIO("0,1\n1,2\n"), sep=",")
        assert g.n_edges == 2

    def test_malformed_line_reports_lineno(self):
        with pytest.raises(GraphError, match="line 2"):
            read_edge_list(io.StringIO("0 1\nbroken\n"))

    def test_non_integer_rejected(self):
        with pytest.raises(GraphError, match="non-integer"):
            read_edge_list(io.StringIO("a b\n"))

    def test_negative_id_rejected_with_lineno(self):
        with pytest.raises(GraphError, match="line 2.*negative node id"):
            read_edge_list(io.StringIO("0 1\n-3 2\n"))

    def test_negative_dst_rejected(self):
        with pytest.raises(GraphError, match="line 1.*negative node id"):
            read_edge_list(io.StringIO("0 -1\n"))

    def test_header_contains_counts(self, tmp_path):
        g = PageGraph.from_edges([0], [1], 2)
        path = tmp_path / "g.tsv"
        write_edge_list(g, path)
        first = path.read_text().splitlines()[0]
        assert "nodes=2" in first and "edges=1" in first


class TestLabeledEdges:
    def test_urls_interned(self):
        text = "http://a.com/1\thttp://b.com/2\nhttp://b.com/2\thttp://a.com/1\n"
        g, names = read_labeled_edges(io.StringIO(text))
        assert g.n_nodes == 2
        assert names["http://a.com/1"] == 0

    def test_malformed_rejected(self):
        with pytest.raises(GraphError, match="line 1"):
            read_labeled_edges(io.StringIO("only-one-field\n"))

