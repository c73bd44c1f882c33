"""Linear-operator layer shared by every ranking in the library.

All of the paper's models — PageRank, SourceRank, spam proximity on the
reversed graph, and Spam-Resilient SourceRank over the throttled matrix
``T''`` — are teleporting random walks over different linear operators.
This package provides:

* the :class:`~repro.linalg.operator.TransitionOperator` protocol and its
  concrete implementations (:class:`~repro.linalg.operator.CsrOperator`,
  :class:`~repro.linalg.operator.BlockedOperator`,
  :class:`~repro.linalg.operator.ThrottledOperator`,
  :class:`~repro.linalg.operator.ReversedOperator`);
* the shared fixed-point engine
  :func:`~repro.linalg.iterate.iterate_to_fixpoint` with its
  :class:`~repro.linalg.iterate.ConvergenceInfo` record;
* the :class:`~repro.linalg.registry.SolverRegistry` mapping solver names
  to solve functions.

This layer sits below :mod:`repro.ranking` and :mod:`repro.throttle`:
it may import only the substrate (errors, graph matrices, the shard
store, observability).
"""

from .iterate import ConvergenceInfo, iterate_to_fixpoint, residual_norm
from .operator import (
    BlockedOperator,
    CsrOperator,
    ReversedOperator,
    ThrottledOperator,
    TransitionOperator,
    as_matrix,
    as_operator,
)
from .registry import (
    BUILTIN_SOLVERS,
    SolverRegistry,
    available_solvers,
    get_solver,
    register_solver,
    solve,
    solver_registry,
)

__all__ = [
    "ConvergenceInfo",
    "iterate_to_fixpoint",
    "residual_norm",
    "TransitionOperator",
    "CsrOperator",
    "BlockedOperator",
    "ThrottledOperator",
    "ReversedOperator",
    "as_operator",
    "as_matrix",
    "BUILTIN_SOLVERS",
    "SolverRegistry",
    "solver_registry",
    "register_solver",
    "get_solver",
    "available_solvers",
    "solve",
]
