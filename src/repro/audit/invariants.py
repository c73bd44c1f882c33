"""Cheap runtime invariant checks for the ranking stack.

The paper's guarantees rest on a handful of structural invariants that
every solver / operator combination is supposed to preserve:

* the source transition matrix ``T'`` is row-stochastic (Section 3.2);
* the throttled matrix ``T''`` keeps boosted diagonals at exactly
  ``T''_ii = κ_i`` and boosted rows row-stochastic (Section 3.3), with
  κ = 1 rows either self-absorbing (``"self"``) or empty (``"dangling"``);
* the power iterate conserves probability mass (up to the sanctioned
  dangling leak of the linear formulation);
* the final σ is a finite, non-negative distribution.

Every check here is a pure function returning a list of
:class:`InvariantViolation` records — callable standalone from tests and
the differential oracle — and :class:`InvariantAuditor` bundles them with
an :class:`~repro.config.AuditParams` policy for the pipeline: violations
are counted in the ``repro_audit_violations_total`` metric (labelled by
invariant) and raised as a typed :class:`~repro.errors.AuditError` in
strict mode.

Each check is O(nnz) at worst (row sums / diagonal extraction), so the
audit is safe to leave on outside micro-benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from ..errors import AuditError, GraphError
from ..logging_utils import get_logger

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..config import AuditParams
    from ..linalg.operator import ThrottledOperator
    from ..ranking.base import RankingResult

__all__ = [
    "InvariantViolation",
    "check_row_stochastic",
    "check_row_stochastic_blocks",
    "check_throttled_matrix",
    "check_throttled_operator",
    "check_throttled_operator_blocks",
    "check_score_distribution",
    "check_kappa_vector",
    "check_iterate_mass",
    "record_violations",
    "InvariantAuditor",
    "IterateMassAuditor",
]

_logger = get_logger(__name__)

#: Metric family counting audit violations, labelled by invariant name.
VIOLATIONS_METRIC = "repro_audit_violations_total"
#: Metric family counting audit checks performed, labelled by invariant name.
CHECKS_METRIC = "repro_audit_checks_total"


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One violated invariant: which rule, where, and by how much.

    Attributes
    ----------
    invariant:
        Machine-readable rule name (metric label), e.g.
        ``"row_stochastic"``, ``"throttle_diagonal"``.
    subject:
        What was being checked (``"T'"``, ``"sigma"``, a solve label...).
    message:
        Human-readable description of the violation.
    value:
        The worst offending magnitude, when meaningful.
    """

    invariant: str
    subject: str
    message: str
    value: float | None = None

    def __str__(self) -> str:
        text = f"[{self.invariant}] {self.subject}: {self.message}"
        if self.value is not None:
            text += f" (worst {self.value:.3e})"
        return text

    def as_dict(self) -> dict:
        """JSON-friendly rendering (for the differential oracle report)."""
        return {
            "invariant": self.invariant,
            "subject": self.subject,
            "message": self.message,
            "value": self.value,
        }


def _row_sums(matrix: sp.spmatrix) -> np.ndarray:
    return np.asarray(matrix.sum(axis=1)).ravel()


# ----------------------------------------------------------------------
# Pure checks
# ----------------------------------------------------------------------
def check_row_stochastic(
    matrix: sp.spmatrix,
    *,
    subject: str = "T'",
    atol: float = 1e-8,
    allow_zero_rows: bool = True,
) -> list[InvariantViolation]:
    """Every row sums to one (optionally allowing all-zero dangling rows)
    and every entry is non-negative and finite."""
    violations: list[InvariantViolation] = []
    csr = matrix.tocsr()
    if csr.nnz and not np.isfinite(csr.data).all():
        violations.append(
            InvariantViolation(
                "row_stochastic", subject, "matrix contains non-finite entries"
            )
        )
        return violations
    if csr.nnz and float(csr.data.min()) < -atol:
        violations.append(
            InvariantViolation(
                "row_stochastic",
                subject,
                "matrix contains negative transition weights",
                value=float(csr.data.min()),
            )
        )
    sums = _row_sums(csr)
    bad = np.abs(sums - 1.0) > atol
    if allow_zero_rows:
        bad &= sums != 0.0
    if bad.any():
        worst = int(np.argmax(np.where(bad, np.abs(sums - 1.0), 0.0)))
        violations.append(
            InvariantViolation(
                "row_stochastic",
                subject,
                f"{int(bad.sum())} rows do not sum to 1 "
                f"(e.g. row {worst} sums to {sums[worst]:.12g})",
                value=float(np.abs(sums[worst] - 1.0)),
            )
        )
    return violations


def _expected_throttle(
    base_diag: np.ndarray,
    base_sums: np.ndarray,
    kappa: np.ndarray,
    full_throttle: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected ``T''`` diagonal and row sums from ``T'`` and κ.

    Returns ``(expected_diag, expected_sums, boosted_mask)`` following the
    Section 3.3 transform: boosted rows (``T'_ii < κ_i``) get diagonal
    exactly ``κ_i`` and total mass 1; κ = 1 rows under ``"dangling"``
    semantics are emptied entirely; every other row is untouched.
    """
    full = (
        (kappa >= 1.0)
        if full_throttle == "dangling"
        else np.zeros(kappa.size, dtype=bool)
    )
    boosted = (base_diag < kappa) & ~full
    expected_diag = np.where(boosted, kappa, base_diag)
    expected_diag[full] = 0.0
    expected_sums = np.where(boosted, 1.0, base_sums)
    expected_sums[full] = 0.0
    return expected_diag, expected_sums, boosted


def _check_throttled(
    diag: np.ndarray,
    sums: np.ndarray,
    base_diag: np.ndarray,
    base_sums: np.ndarray,
    kappa: np.ndarray,
    *,
    full_throttle: str,
    subject: str,
    atol: float,
) -> list[InvariantViolation]:
    violations: list[InvariantViolation] = []
    expected_diag, expected_sums, boosted = _expected_throttle(
        base_diag, base_sums, kappa, full_throttle
    )
    diag_err = np.abs(diag - expected_diag)
    bad_diag = diag_err > atol
    if bad_diag.any():
        worst = int(np.argmax(np.where(bad_diag, diag_err, 0.0)))
        kind = "boosted" if boosted[worst] else "untouched"
        violations.append(
            InvariantViolation(
                "throttle_diagonal",
                subject,
                f"{int(bad_diag.sum())} diagonal entries differ from the "
                f"Section 3.3 value (e.g. {kind} row {worst}: "
                f"T''_ii={diag[worst]:.12g}, expected "
                f"{expected_diag[worst]:.12g}, kappa={kappa[worst]:.12g})",
                value=float(diag_err[worst]),
            )
        )
    sum_err = np.abs(sums - expected_sums)
    bad_sums = sum_err > atol
    if bad_sums.any():
        worst = int(np.argmax(np.where(bad_sums, sum_err, 0.0)))
        violations.append(
            InvariantViolation(
                "throttle_row_mass",
                subject,
                f"{int(bad_sums.sum())} rows of T'' carry the wrong total "
                f"mass (e.g. row {worst}: {sums[worst]:.12g}, expected "
                f"{expected_sums[worst]:.12g})",
                value=float(sum_err[worst]),
            )
        )
    return violations


def check_throttled_matrix(
    base: sp.spmatrix,
    kappa: np.ndarray,
    throttled: sp.spmatrix,
    *,
    full_throttle: str = "self",
    subject: str = "T''",
    atol: float = 1e-8,
) -> list[InvariantViolation]:
    """A materialized ``T''`` satisfies the Section 3.3 invariants.

    Checks ``T''_ii = κ_i`` on boosted rows, untouched rows byte-for-byte
    mass, boosted rows row-stochastic, and κ = 1 rows empty under the
    ``"dangling"`` reading.
    """
    base = base.tocsr()
    throttled = throttled.tocsr()
    kappa = np.asarray(getattr(kappa, "kappa", kappa), dtype=np.float64).ravel()
    return _check_throttled(
        throttled.diagonal(),
        _row_sums(throttled),
        base.diagonal(),
        _row_sums(base),
        kappa,
        full_throttle=full_throttle,
        subject=subject,
        atol=atol,
    )


def check_throttled_operator(
    operator: "ThrottledOperator",
    *,
    subject: str = "T''",
    atol: float = 1e-8,
) -> list[InvariantViolation]:
    """A lazy :class:`~repro.linalg.operator.ThrottledOperator` implies the
    same diagonal/row-mass invariants its materialized ``T''`` must have.

    Reads the diagonal and row sums the operator actually applies
    (``diag(s)·T' + diag(c)``) — so this audits the numbers the solve
    will see, not a recomputation of the transform.
    """
    base = operator.base.matrix
    return _check_throttled(
        operator.diagonal(),
        operator.row_sums(),
        base.diagonal(),
        _row_sums(base),
        operator.kappa,
        full_throttle=operator.full_throttle,
        subject=subject,
        atol=atol,
    )


def _block_diagonal(block: sp.csr_matrix, row_start: int) -> np.ndarray:
    """Main-diagonal entries of a row block: local row ``i`` maps to
    global column ``row_start + i`` in the (n_rows × n) block."""
    n_rows = block.shape[0]
    row_of = np.repeat(
        np.arange(n_rows, dtype=np.int64), np.diff(block.indptr)
    )
    hit = block.indices == row_of + row_start
    diag = np.zeros(n_rows, dtype=np.float64)
    diag[row_of[hit]] = block.data[hit]
    return diag


def check_row_stochastic_blocks(
    store: object,
    *,
    subject: str = "T'",
    atol: float = 1e-8,
    allow_zero_rows: bool = True,
) -> list[InvariantViolation]:
    """Row-stochasticity of a sharded graph, one row block at a time.

    The out-of-core sibling of :func:`check_row_stochastic`: ``store`` is
    a :class:`~repro.webgraph.store.ShardedGraphStore` (or a
    :class:`~repro.linalg.BlockedOperator` over one) and each decoded
    block is checked independently, so the full matrix is never
    materialized and peak memory stays O(block).  Violations carry the
    block id in their subject (``T'[block 3]``).
    """
    violations: list[InvariantViolation] = []
    for info, block in store.iter_blocks():
        violations.extend(
            check_row_stochastic(
                block,
                subject=f"{subject}[block {info.block_id}]",
                atol=atol,
                allow_zero_rows=allow_zero_rows,
            )
        )
    return violations


def check_throttled_operator_blocks(
    operator: "ThrottledOperator",
    *,
    subject: str = "T''",
    atol: float = 1e-8,
) -> list[InvariantViolation]:
    """Section 3.3 throttle algebra over a blocked base, block by block.

    The out-of-core sibling of :func:`check_throttled_operator`: the
    operator's base must expose ``iter_blocks()`` / ``shards``
    (a :class:`~repro.linalg.BlockedOperator`).  Each block's base
    diagonal and row sums are recomputed from the decoded shard and
    checked against the slice of the throttled operator's effective
    diagonal/row mass — auditing the exact numbers the out-of-core solve
    applies without assembling ``T'`` or ``T''``.
    """
    base = operator.base
    if not hasattr(base, "iter_blocks"):
        raise GraphError(
            "check_throttled_operator_blocks needs an operator over a "
            f"blocked base (got base {type(base).__name__}); use "
            "check_throttled_operator for in-memory bases"
        )
    kappa = np.asarray(operator.kappa, dtype=np.float64).ravel()
    op_diag = operator.diagonal()
    op_sums = operator.row_sums()
    violations: list[InvariantViolation] = []
    for info, block in base.iter_blocks():
        lo, hi = info.row_start, info.row_stop
        violations.extend(
            _check_throttled(
                op_diag[lo:hi],
                op_sums[lo:hi],
                _block_diagonal(block, lo),
                np.asarray(block.sum(axis=1)).ravel(),
                kappa[lo:hi],
                full_throttle=operator.full_throttle,
                subject=f"{subject}[block {info.block_id}]",
                atol=atol,
            )
        )
    return violations


def check_score_distribution(
    scores: np.ndarray,
    *,
    subject: str = "sigma",
    atol: float = 1e-8,
) -> list[InvariantViolation]:
    """σ is a finite, non-negative probability distribution."""
    violations: list[InvariantViolation] = []
    scores = np.asarray(scores, dtype=np.float64).ravel()
    if not np.isfinite(scores).all():
        violations.append(
            InvariantViolation(
                "score_finite", subject, "score vector contains non-finite values"
            )
        )
        return violations
    if scores.size and float(scores.min()) < -atol:
        violations.append(
            InvariantViolation(
                "score_nonnegative",
                subject,
                f"{int((scores < -atol).sum())} scores are negative",
                value=float(scores.min()),
            )
        )
    total = float(scores.sum())
    if abs(total - 1.0) > atol:
        violations.append(
            InvariantViolation(
                "score_mass",
                subject,
                f"scores sum to {total:.12g}, expected 1",
                value=abs(total - 1.0),
            )
        )
    return violations


def check_kappa_vector(
    kappa: np.ndarray,
    *,
    n: int | None = None,
    subject: str = "kappa",
) -> list[InvariantViolation]:
    """κ is finite, inside [0, 1], and sized to the source graph."""
    violations: list[InvariantViolation] = []
    kappa = np.asarray(getattr(kappa, "kappa", kappa), dtype=np.float64).ravel()
    if not np.isfinite(kappa).all():
        violations.append(
            InvariantViolation(
                "kappa_domain", subject, "throttle vector contains non-finite values"
            )
        )
        return violations
    if kappa.size and (kappa.min() < 0.0 or kappa.max() > 1.0):
        violations.append(
            InvariantViolation(
                "kappa_domain",
                subject,
                f"throttle values outside [0, 1]: range "
                f"[{kappa.min():.12g}, {kappa.max():.12g}]",
                value=float(max(-kappa.min(), kappa.max() - 1.0)),
            )
        )
    if n is not None and kappa.size != int(n):
        violations.append(
            InvariantViolation(
                "kappa_size",
                subject,
                f"throttle vector covers {kappa.size} sources but the "
                f"source graph has {int(n)}",
            )
        )
    return violations


def check_iterate_mass(
    x: np.ndarray,
    *,
    iteration: int,
    subject: str = "iterate",
    atol: float = 1e-8,
    leaky: bool = False,
) -> list[InvariantViolation]:
    """The power iterate conserves probability mass.

    Without dangling rows the iterate must keep total mass 1 exactly;
    with dangling rows under the paper's "linear" handling mass may leak
    (``leaky=True``) but must stay positive and never exceed 1.
    """
    violations: list[InvariantViolation] = []
    x = np.asarray(x)
    if not np.isfinite(x).all():
        violations.append(
            InvariantViolation(
                "mass_conservation",
                subject,
                f"non-finite iterate at iteration {iteration}",
            )
        )
        return violations
    mass = float(x.sum())
    if leaky:
        if not (0.0 < mass <= 1.0 + atol):
            violations.append(
                InvariantViolation(
                    "mass_conservation",
                    subject,
                    f"iterate mass {mass:.12g} outside (0, 1] at iteration "
                    f"{iteration} (dangling leak may only shrink mass)",
                    value=abs(mass - 1.0),
                )
            )
    elif abs(mass - 1.0) > atol:
        violations.append(
            InvariantViolation(
                "mass_conservation",
                subject,
                f"iterate mass {mass:.12g} != 1 at iteration {iteration}",
                value=abs(mass - 1.0),
            )
        )
    return violations


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def record_violations(
    violations: Sequence[InvariantViolation],
    *,
    strict: bool = True,
    warn: bool = True,
) -> tuple[InvariantViolation, ...]:
    """Publish violations to the metrics registry; raise in strict mode.

    Every violation increments ``repro_audit_violations_total`` labelled
    with its invariant name.  With ``strict`` a non-empty list raises
    :class:`~repro.errors.AuditError`; otherwise violations are logged as
    warnings (``warn=False`` silences the log, the counters still move).
    Returns the violations unchanged for chaining.
    """
    violations = tuple(violations)
    if not violations:
        return violations
    from ..observability.tracing import emit as emit_event
    from ..observability.metrics import get_registry

    counter = get_registry().counter(
        VIOLATIONS_METRIC,
        "Correctness-audit invariant violations",
        labelnames=("invariant",),
    )
    for violation in violations:
        counter.labels(invariant=violation.invariant).inc()
        emit_event(
            "audit_violation",
            invariant=violation.invariant,
            subject=violation.subject,
            message=violation.message,
            worst=violation.value,
            strict=strict,
        )
        if warn and not strict:
            _logger.warning("audit violation: %s", violation)
    if strict:
        raise AuditError(violations)
    return violations


class InvariantAuditor:
    """Stage-boundary invariant checks behind one :class:`AuditParams` policy.

    The pipeline owns one of these per configured
    :attr:`~repro.config.RankingParams.audit`; every ``audit_*`` method
    runs its checks (when the policy enables that family), counts each
    check in ``repro_audit_checks_total``, records violations through
    :func:`record_violations`, and raises
    :class:`~repro.errors.AuditError` in strict mode.  With
    ``params=None`` every method is a cheap no-op returning ``()``.
    """

    __slots__ = ("params",)

    def __init__(self, params: "AuditParams | None" = None) -> None:
        self.params = params

    @property
    def enabled(self) -> bool:
        """Whether any checks will run."""
        return self.params is not None

    def _count_check(self, invariant: str) -> None:
        from ..observability.metrics import get_registry

        get_registry().counter(
            CHECKS_METRIC,
            "Correctness-audit checks performed",
            labelnames=("invariant",),
        ).labels(invariant=invariant).inc()

    def _finish(
        self, violations: Iterable[InvariantViolation]
    ) -> tuple[InvariantViolation, ...]:
        assert self.params is not None
        return record_violations(violations, strict=self.params.strict)

    def audit_transition(
        self, matrix: sp.spmatrix, *, subject: str = "T'"
    ) -> tuple[InvariantViolation, ...]:
        """Row-stochasticity of a transition matrix (``T'`` has no
        dangling rows by SourceGraph construction)."""
        if self.params is None or not self.params.check_transition:
            return ()
        self._count_check("row_stochastic")
        return self._finish(
            check_row_stochastic(
                matrix,
                subject=subject,
                atol=self.params.atol,
                allow_zero_rows=False,
            )
        )

    def audit_kappa(
        self, kappa: np.ndarray, *, n: int | None = None
    ) -> tuple[InvariantViolation, ...]:
        """κ domain/size validity."""
        if self.params is None or not self.params.check_transition:
            return ()
        self._count_check("kappa_domain")
        return self._finish(check_kappa_vector(kappa, n=n))

    def audit_throttled(
        self, operator: "ThrottledOperator", *, subject: str = "T''"
    ) -> tuple[InvariantViolation, ...]:
        """Section 3.3 diagonal/row-mass invariants of the throttled walk."""
        if self.params is None or not self.params.check_transition:
            return ()
        self._count_check("throttle_diagonal")
        return self._finish(
            check_throttled_operator(
                operator, subject=subject, atol=self.params.atol
            )
        )

    def audit_result(
        self, result: "RankingResult", *, subject: str | None = None
    ) -> tuple[InvariantViolation, ...]:
        """Final σ is a finite, non-negative distribution."""
        if self.params is None or not self.params.check_scores:
            return ()
        self._count_check("score_distribution")
        return self._finish(
            check_score_distribution(
                result.scores,
                subject=subject or result.label or "sigma",
                atol=self.params.atol,
            )
        )


class IterateMassAuditor:
    """Per-iteration mass-conservation checks for the iteration engine.

    Built lazily by :func:`repro.linalg.iterate.iterate_to_fixpoint` when
    ``params.audit`` is set (power solver only — the linear solvers'
    intermediate iterates are not distributions).  Violations are counted
    every time; in lenient mode only the first is logged to avoid
    per-iteration log spam.
    """

    __slots__ = ("params", "subject", "leaky", "_warned")

    def __init__(
        self, params: "AuditParams", *, subject: str, leaky: bool
    ) -> None:
        self.params = params
        self.subject = subject
        self.leaky = leaky
        self._warned = False

    def check(self, iteration: int, x: np.ndarray) -> None:
        """Audit one iterate; raises :class:`AuditError` in strict mode."""
        violations = check_iterate_mass(
            x,
            iteration=iteration,
            subject=self.subject,
            atol=self.params.atol,
            leaky=self.leaky,
        )
        if violations:
            record_violations(
                violations, strict=self.params.strict, warn=not self._warned
            )
            self._warned = True
