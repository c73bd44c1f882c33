"""Quotient-graph kernels (page graph → source graph) by sparse algebra.

Two aggregation semantics are needed by the paper:

* :func:`quotient_edge_counts` — raw page-edge multiplicity between source
  pairs (the naive quotient, used for uniform weighting and statistics);
* :func:`quotient_unique_page_counts` — the *source consensus* count of
  Section 3.2: the number of **unique pages** of the origin source that
  link to *any* page of the target source (a page linking to five pages of
  the same target source counts once).

Both are one sparse product ``S·B`` of the source × page indicator ``S``
and the page × target-source incidence ``B``, built on the page graph's
own ``indptr``: no global sort and no Python-level loop.  Leaving out
intra-source links removes exactly the diagonal of the product.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import SourceAssignmentError
from ..graph.pagegraph import PageGraph
from .assignment import SourceAssignment

__all__ = ["quotient_edge_counts", "quotient_unique_page_counts"]


def _quotient(
    graph: PageGraph,
    assignment: SourceAssignment,
    include_intra: bool,
    *,
    distinct_pages: bool,
) -> sp.csr_matrix:
    """``S·B``, or ``S·bin(B)`` for distinct pages, as canonical int64 CSR."""
    if assignment.n_pages != graph.n_nodes:
        raise SourceAssignmentError(
            f"assignment covers {assignment.n_pages} pages but graph has "
            f"{graph.n_nodes} nodes"
        )
    n_pages, n_sources = graph.n_nodes, assignment.n_sources
    page_to_source = assignment.page_to_source
    # B[p, t] = links from page p into source t.  Merging a row's repeated
    # targets rewrites indptr in place, hence the copy.
    incidence = sp.csr_matrix(
        (
            np.ones(graph.n_edges, dtype=np.int64),
            page_to_source[graph.indices],
            graph.indptr.copy(),
        ),
        shape=(n_pages, n_sources),
    )
    if distinct_pages:  # the product sums repeats itself otherwise
        incidence.sum_duplicates()
        incidence.data[:] = 1
    indicator = sp.csr_matrix(  # S[i, p] = 1 iff page p is in source i
        (np.ones(n_pages, dtype=np.int64), (page_to_source, np.arange(n_pages))),
        shape=(n_sources, n_pages),
    )
    counts = indicator @ incidence
    if not include_intra:
        diagonal = sp.diags(counts.diagonal(), dtype=np.int64, format="csr")
        counts = counts - diagonal
    counts.sort_indices()
    return counts


def quotient_edge_counts(
    graph: PageGraph,
    assignment: SourceAssignment,
    *,
    include_intra: bool = True,
) -> sp.csr_matrix:
    """Source-pair edge multiplicities.

    Entry ``(i, j)`` counts page edges from source ``i`` to source ``j``
    (including ``i == j`` diagonal entries unless ``include_intra=False``).

    Returns
    -------
    scipy.sparse.csr_matrix of int64, shape ``(n_sources, n_sources)``.
    """
    return _quotient(graph, assignment, include_intra, distinct_pages=False)


def quotient_unique_page_counts(
    graph: PageGraph,
    assignment: SourceAssignment,
    *,
    include_intra: bool = True,
) -> sp.csr_matrix:
    """Source-consensus counts ``w(s_i, s_j)`` of Section 3.2 (unnormalized).

    Entry ``(i, j)`` is the number of distinct pages in source ``i`` that
    have at least one hyperlink to some page in source ``j``:

    .. math::

        w(s_i, s_j) = \\sum_{p \\in s_i}
            \\bigvee_{q \\in s_j} I[(p, q) \\in L_P]

    Implementation: merging each row of ``B`` leaves one entry per
    distinct ``(page, target source)`` pair; binarized, its rows summed
    per origin source (``S·bin(B)``) count each linking page once.
    """
    return _quotient(graph, assignment, include_intra, distinct_pages=True)
