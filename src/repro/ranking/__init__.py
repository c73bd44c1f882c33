"""Ranking engines: PageRank, SourceRank, and Spam-Resilient SourceRank.

All three rankings are stationary distributions of teleporting random
walks; they differ in the transition matrix:

* :func:`~repro.ranking.pagerank.pagerank` — the page-level matrix ``M``
  (Eq. 1 of the paper);
* :func:`~repro.ranking.sourcerank.sourcerank` — the source-level matrix
  ``T'`` with no throttling (the Fig. 5 baseline);
* :func:`~repro.ranking.srsourcerank.spam_resilient_sourcerank` — the
  influence-throttled matrix ``T''`` (Eq. 3, the paper's contribution).

Three linear solvers are provided (power iteration — the paper's choice —
plus Jacobi and Gauss–Seidel for the solver ablation).
"""

from .base import ConvergenceInfo, RankingResult
from .teleport import uniform_teleport, seeded_teleport, personalized_teleport
from .dangling import DANGLING_STRATEGIES, dangling_vector
from .power import power_iteration, PowerOperator
from .jacobi import jacobi_solve
from .gauss_seidel import gauss_seidel_solve
from .pagerank import pagerank
from .sourcerank import sourcerank
from .srsourcerank import spam_resilient_sourcerank
from .hits import hits, HitsResult
from .trustrank import trustrank, select_trust_seeds
from .blockrank import blockrank, BlockRankResult, local_pagerank
from .incremental import IncrementalPageRank, IncrementalSourceRank

__all__ = [
    "ConvergenceInfo",
    "RankingResult",
    "uniform_teleport",
    "seeded_teleport",
    "personalized_teleport",
    "DANGLING_STRATEGIES",
    "dangling_vector",
    "power_iteration",
    "PowerOperator",
    "jacobi_solve",
    "gauss_seidel_solve",
    "pagerank",
    "sourcerank",
    "spam_resilient_sourcerank",
    "hits",
    "HitsResult",
    "trustrank",
    "select_trust_seeds",
    "blockrank",
    "BlockRankResult",
    "local_pagerank",
    "IncrementalPageRank",
    "IncrementalSourceRank",
]
