"""Graph IO: plain edge lists and labeled (URL) edge lists.

Formats
-------
* **Edge list** — one ``src<sep>dst`` integer pair per line, ``#`` comments
  allowed.  This is the interchange format of the public WebGraph-derived
  datasets the paper uses.
* **Labeled edges** — one ``src_url<sep>dst_url`` pair per line; URLs are
  interned to dense ids via :class:`~repro.graph.builder.GraphBuilder`.

Graphs persist in binary form as a sharded store
(:mod:`repro.webgraph.store`).
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import TextIO

import numpy as np

from ..errors import GraphError
from .builder import GraphBuilder
from .pagegraph import PageGraph
from .streaming import stream_edge_chunks

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_labeled_edges",
]


def _open_text(path_or_file: str | Path | TextIO, mode: str) -> tuple[TextIO, bool]:
    if isinstance(path_or_file, (str, Path)):
        return open(path_or_file, mode, encoding="utf-8"), True
    return path_or_file, False


def read_edge_list(
    path_or_file: str | Path | TextIO,
    *,
    sep: str | None = None,
    n_nodes: int | None = None,
) -> PageGraph:
    """Parse an integer edge list into a :class:`PageGraph`.

    Parameters
    ----------
    path_or_file:
        Filesystem path or open text handle.
    sep:
        Field separator; ``None`` (default) splits on any whitespace.
    n_nodes:
        Optional explicit node count (for trailing isolated nodes).

    Lines are parsed by :func:`~repro.graph.streaming.stream_edge_chunks`:
    ``#`` comments and blank lines are skipped, and a malformed line or a
    negative node id raises :class:`~repro.errors.GraphError` naming its
    line number.
    """
    chunks = list(stream_edge_chunks(path_or_file, sep=sep))
    empty = np.empty(0, dtype=np.int64)
    return PageGraph.from_edges(
        np.concatenate([empty, *(src for src, _ in chunks)]),
        np.concatenate([empty, *(dst for _, dst in chunks)]),
        n_nodes,
    )


def write_edge_list(
    graph: PageGraph,
    path_or_file: str | Path | TextIO,
    *,
    sep: str = "\t",
    header: bool = True,
) -> None:
    """Write a graph as a ``src<sep>dst`` text edge list."""
    handle, owned = _open_text(path_or_file, "w")
    try:
        if header:
            handle.write(f"# nodes={graph.n_nodes} edges={graph.n_edges}\n")
        src, dst = graph.edge_arrays()
        # Build the whole payload in one shot; far faster than per-line writes.
        buf = _io.StringIO()
        np.savetxt(buf, np.column_stack([src, dst]), fmt="%d", delimiter=sep)
        handle.write(buf.getvalue())
    finally:
        if owned:
            handle.close()


def read_labeled_edges(
    path_or_file: str | Path | TextIO,
    *,
    sep: str | None = None,
) -> tuple[PageGraph, dict[str, int]]:
    """Parse a URL-pair edge list, interning URLs to dense node ids.

    Returns ``(graph, name_to_id)``.
    """
    handle, owned = _open_text(path_or_file, "r")
    builder = GraphBuilder()
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(sep)
            if len(parts) < 2:
                raise GraphError(
                    f"line {lineno}: expected 'src_url dst_url', got {line!r}"
                )
            builder.add_named_edge(parts[0], parts[1])
    finally:
        if owned:
            handle.close()
    graph = builder.build()
    return graph, {str(k): v for k, v in builder.names.items()}
