"""Graph IO: plain edge lists, labeled (URL) edge lists, and binary npz.

Formats
-------
* **Edge list** — one ``src<sep>dst`` integer pair per line, ``#`` comments
  allowed.  This is the interchange format of the public WebGraph-derived
  datasets the paper uses.
* **Labeled edges** — one ``src_url<sep>dst_url`` pair per line; URLs are
  interned to dense ids via :class:`~repro.graph.builder.GraphBuilder`.
* **npz** — the CSR arrays stored via :func:`numpy.savez_compressed`; the
  fast path for benchmark fixtures.
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import TextIO

import numpy as np

from ..errors import CodecError, GraphError
from .builder import GraphBuilder
from .pagegraph import PageGraph
from .streaming import stream_edge_chunks

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_labeled_edges",
    "save_npz",
    "load_npz",
]

_NPZ_FORMAT_VERSION = 1


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


def save_npz(graph: PageGraph, path: str | Path) -> None:
    """Serialize a graph's CSR arrays with :func:`numpy.savez_compressed`."""
    np.savez_compressed(
        path,
        format_version=np.int64(_NPZ_FORMAT_VERSION),
        n_nodes=np.int64(graph.n_nodes),
        indptr=graph.indptr,
        indices=graph.indices,
    )


def load_npz(path: str | Path) -> PageGraph:
    """Load a graph previously saved with :func:`save_npz`.

    The archive's ``format_version`` is verified before any array is
    trusted; a tampered, truncated, or foreign ``.npz`` raises
    :class:`~repro.errors.CodecError` rather than producing a silently
    wrong graph.
    """
    with np.load(path) as data:
        try:
            version = int(data["format_version"])
        except KeyError as exc:
            raise CodecError(
                f"{path}: missing field {exc} — not a repro graph file"
            ) from exc
        if version != _NPZ_FORMAT_VERSION:
            raise CodecError(
                f"{path}: unsupported graph format version {version} "
                f"(expected {_NPZ_FORMAT_VERSION})"
            )
        try:
            n_nodes = int(data["n_nodes"])
            indptr = data["indptr"]
            indices = data["indices"]
        except KeyError as exc:
            raise CodecError(
                f"{path}: missing field {exc} — not a repro graph file"
            ) from exc
    return PageGraph(indptr, indices, n_nodes)
