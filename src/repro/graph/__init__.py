"""Page-graph substrate: construction, storage, transforms, IO, statistics.

The paper models the Web as a directed page graph ``G_P = <P, L_P>``.  This
package provides the in-memory CSR representation (:class:`PageGraph`), an
incremental :class:`GraphBuilder`, row-stochastic transition-matrix assembly
(:mod:`repro.graph.matrix`), structural transforms, edge-list IO, URL/host
utilities, and graph statistics.
"""

from .builder import GraphBuilder
from .pagegraph import PageGraph
from .matrix import (
    transition_matrix,
    row_normalize,
    is_row_stochastic,
    row_sums,
)
from .transforms import (
    reverse_graph,
    induced_subgraph,
    relabel_graph,
    add_edges,
    remove_self_loops,
)
from .io import (
    read_edge_list,
    write_edge_list,
    read_labeled_edges,
)
from .urls import normalize_url, extract_host, extract_registered_domain
from .stats import GraphStats, compute_stats, degree_histogram, intra_host_locality
from .components import (
    ComponentSummary,
    component_summary,
    reachable_from,
    strongly_connected_components,
    weakly_connected_components,
)
from .streaming import StreamingBuilder, stream_edge_chunks

__all__ = [
    "PageGraph",
    "GraphBuilder",
    "transition_matrix",
    "row_normalize",
    "is_row_stochastic",
    "row_sums",
    "reverse_graph",
    "induced_subgraph",
    "relabel_graph",
    "add_edges",
    "remove_self_loops",
    "read_edge_list",
    "write_edge_list",
    "read_labeled_edges",
    "normalize_url",
    "extract_host",
    "extract_registered_domain",
    "GraphStats",
    "compute_stats",
    "degree_histogram",
    "intra_host_locality",
    "ComponentSummary",
    "component_summary",
    "reachable_from",
    "strongly_connected_components",
    "weakly_connected_components",
    "StreamingBuilder",
    "stream_edge_chunks",
]
