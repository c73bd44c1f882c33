"""Compressed adjacency storage — a laptop-scale Boldi–Vigna analogue.

The paper manages its 118 M-page graphs with the Java WebGraph compression
framework [10].  This package reproduces the central ideas in pure Python +
NumPy: successor lists are delta-gap transformed (:mod:`repro.webgraph.gaps`)
and entropy-coded with LEB128 varints (:mod:`repro.webgraph.varint`);
:class:`~repro.webgraph.store.ShardedGraphStore` keeps the encoded rows on
disk as digest-verified row-block shards, the form the out-of-core solve
streams, with an exact round trip from
:class:`~repro.graph.pagegraph.PageGraph` or a sparse matrix.
"""

from .varint import encode_varints, decode_varints, varint_length
from .gaps import to_gaps, from_gaps
from .store import ShardInfo, ShardedGraphStore, ShardedStoreWriter

__all__ = [
    "ShardInfo",
    "ShardedGraphStore",
    "ShardedStoreWriter",
    "encode_varints",
    "decode_varints",
    "varint_length",
    "to_gaps",
    "from_gaps",
]
