"""Source-view substrate: page-to-source assignment and the source graph.

Section 3.1 of the paper introduces the hierarchical *source view*: pages
are grouped into logical collections (sources, host-level by default) and
the page graph is quotiented into a source graph ``G_S = <S, L_S>``.  This
package provides:

* :class:`~repro.sources.assignment.SourceAssignment` — the page→source map,
  constructed from hosts, registered domains, explicit arrays, or URL lists;
* :mod:`repro.sources.quotient` — vectorized quotient-graph machinery;
* :mod:`repro.sources.consensus` — the *source consensus* edge weighting
  ``w(s_i, s_j)`` (count of unique pages in ``s_i`` linking into ``s_j``);
* :class:`~repro.sources.sourcegraph.SourceGraph` — the weighted source
  graph with the mandatory self-edges of Section 3.3.
"""

from .assignment import SourceAssignment
from .quotient import quotient_edge_counts, quotient_unique_page_counts
from .consensus import consensus_weights, uniform_weights
from .sourcegraph import SourceGraph

__all__ = [
    "SourceAssignment",
    "quotient_edge_counts",
    "quotient_unique_page_counts",
    "consensus_weights",
    "uniform_weights",
    "SourceGraph",
]
