"""Correctness audit harness: invariants, differential oracle, metamorphic checks.

Three complementary layers of cross-checking for the ranking stack:

* :mod:`repro.audit.invariants` — cheap runtime invariant checks
  (row-stochasticity, ``T''_ii = κ_i``, mass conservation, σ a
  distribution), standalone or wired into the pipeline via
  :class:`~repro.config.AuditParams`;
* :mod:`repro.audit.differential` — a seeded oracle running every
  registered solver × {lazy, materialized, blocked} operator path (the
  blocked operand solves out-of-core from a sharded store) and flagging
  any pair that disagrees beyond 1e-9;
* :mod:`repro.audit.metamorphic` — relabeling-permutation,
  edge-weight-scaling, and seed-bias-monotonicity relations for
  :func:`~repro.ranking.srsourcerank.spam_resilient_sourcerank` and
  :func:`~repro.throttle.spam_proximity.spam_proximity`.

Violations flow through one channel: the
``repro_audit_violations_total`` metric (labelled by invariant) and, in
strict mode, a typed :class:`~repro.errors.AuditError`.
"""

from .differential import (
    DifferentialReport,
    GraphCase,
    generate_case_suite,
    run_differential_oracle,
)
from .invariants import (
    InvariantAuditor,
    InvariantViolation,
    check_iterate_mass,
    check_kappa_vector,
    check_row_stochastic,
    check_row_stochastic_blocks,
    check_score_distribution,
    check_throttled_matrix,
    check_throttled_operator,
    check_throttled_operator_blocks,
    record_violations,
)
from .metamorphic import (
    MetamorphicReport,
    check_permutation_relation,
    check_seed_monotonicity_relation,
    check_weight_scaling_relation,
    run_metamorphic_suite,
)

__all__ = [
    "InvariantViolation",
    "InvariantAuditor",
    "check_row_stochastic",
    "check_row_stochastic_blocks",
    "check_throttled_matrix",
    "check_throttled_operator",
    "check_throttled_operator_blocks",
    "check_score_distribution",
    "check_kappa_vector",
    "check_iterate_mass",
    "record_violations",
    "GraphCase",
    "DifferentialReport",
    "generate_case_suite",
    "run_differential_oracle",
    "MetamorphicReport",
    "check_permutation_relation",
    "check_weight_scaling_relation",
    "check_seed_monotonicity_relation",
    "run_metamorphic_suite",
]
