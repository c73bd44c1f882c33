"""Differential oracle: every solver × operator path must agree.

The stack offers three registered solvers (power, Jacobi, Gauss–Seidel)
and three ways to present the throttled operand: the lazy
:class:`~repro.linalg.operator.ThrottledOperator`, the materialized
:func:`~repro.throttle.transform.throttle_transform` matrix, and —
out-of-core — the lazy transform over a
:class:`~repro.linalg.BlockedOperator` streaming row-block shards from a
:class:`~repro.webgraph.store.ShardedGraphStore` (each case's matrix is
round-tripped through an on-disk store built in a temp directory, so the
oracle also proves the varint-gap codec path end to end).  All of them
solve the same Eq. 3 fixed point

    σᵀ = α σᵀ T'' + (1 − α) cᵀ

so after L1 normalization their score vectors must coincide — any pair
disagreeing beyond tolerance means one of the paths is wrong.  This
module generates a seeded suite of adversarial graphs (dangling rows,
κ ∈ {0, 1} extremes, disconnected components), runs every combination
through the :data:`~repro.linalg.registry.solver_registry`, and reports
every disagreeing pair in a JSON-serializable
:class:`DifferentialReport`.

Solves run at an inner tolerance of 1e-12 so the pairwise comparison at
1e-9 is meaningful: the fixed-point error of an iterate is bounded by
``residual / (1 − α)``, a ~6.7× amplification at the paper's α = 0.85.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..config import RankingParams
from ..linalg.operator import BlockedOperator, ThrottledOperator
from ..linalg.registry import solver_registry
from ..throttle.transform import throttle_transform
from ..webgraph.store import ShardedGraphStore
from .invariants import (
    InvariantViolation,
    check_row_stochastic_blocks,
    check_score_distribution,
    check_throttled_matrix,
    check_throttled_operator_blocks,
    record_violations,
)

__all__ = [
    "GraphCase",
    "ComboResult",
    "Disagreement",
    "DifferentialReport",
    "generate_case_suite",
    "run_differential_oracle",
]

#: Inner solve tolerance: tight enough that a 1e-9 pairwise comparison
#: is dominated by genuine path differences, not stopping slack.
SOLVE_TOLERANCE = 1e-12
#: Pairwise score-vector agreement tolerance (the ISSUE acceptance bar).
AGREEMENT_ATOL = 1e-9


@dataclass(frozen=True)
class GraphCase:
    """One seeded graph instance the oracle exercises.

    Attributes
    ----------
    name:
        Stable identifier of the structural feature under test.
    matrix:
        Row-stochastic source transition matrix ``T'`` (CSR); dangling
        rows allowed.
    kappa:
        Throttling vector in ``[0, 1]`` (zero on dangling rows — rows
        with no off-diagonal mass cannot be boosted).
    full_throttle:
        κ = 1 semantics to apply (``"self"`` or ``"dangling"``).
    """

    name: str
    matrix: sp.csr_matrix
    kappa: np.ndarray
    full_throttle: str = "self"

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class ComboResult:
    """Score vector from one solver × operand-mode path."""

    solver: str
    operand: str  # "lazy" | "materialized" | "blocked"
    scores: np.ndarray
    iterations: int
    converged: bool

    @property
    def key(self) -> str:
        return f"{self.solver}/{self.operand}"


@dataclass(frozen=True)
class Disagreement:
    """A pair of paths whose σ differ beyond tolerance on one case."""

    case: str
    combo_a: str
    combo_b: str
    max_abs_diff: float
    atol: float

    def as_dict(self) -> dict:
        return {
            "case": self.case,
            "combo_a": self.combo_a,
            "combo_b": self.combo_b,
            "max_abs_diff": self.max_abs_diff,
            "atol": self.atol,
        }


@dataclass
class DifferentialReport:
    """Outcome of one oracle run, serializable for the CI artifact."""

    seed: int
    atol: float
    tolerance: float
    cases: list[dict] = field(default_factory=list)
    disagreements: list[Disagreement] = field(default_factory=list)
    invariant_violations: list[InvariantViolation] = field(default_factory=list)
    n_combos: int = 0

    @property
    def passed(self) -> bool:
        return not self.disagreements and not self.invariant_violations

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "atol": self.atol,
            "tolerance": self.tolerance,
            "n_combos": self.n_combos,
            "passed": self.passed,
            "cases": self.cases,
            "disagreements": [d.as_dict() for d in self.disagreements],
            "invariant_violations": [
                v.as_dict() for v in self.invariant_violations
            ],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def write(self, path: str | Path) -> Path:
        """Write the JSON report; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"differential oracle {status}: {len(self.cases)} cases x "
            f"{self.n_combos} total combos, "
            f"{len(self.disagreements)} disagreement(s), "
            f"{len(self.invariant_violations)} invariant violation(s)"
        )


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------
def _random_stochastic(
    rng: np.random.Generator,
    n: int,
    *,
    dangling: Sequence[int] = (),
    min_out: int = 2,
) -> sp.csr_matrix:
    """Random row-stochastic CSR where every non-dangling row has at
    least ``min_out`` out-edges (so throttling always has off-diagonal
    mass to rescale)."""
    dangling = set(int(d) for d in dangling)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i in range(n):
        if i in dangling:
            continue
        degree = int(rng.integers(min_out, max(min_out + 1, n // 2)))
        targets = rng.choice(n, size=min(degree, n), replace=False)
        weights = rng.uniform(0.1, 1.0, size=targets.size)
        weights /= weights.sum()
        rows.extend([i] * targets.size)
        cols.extend(int(t) for t in targets)
        data.extend(float(w) for w in weights)
    matrix = sp.csr_matrix(
        (data, (rows, cols)), shape=(n, n), dtype=np.float64
    )
    matrix.sum_duplicates()
    return matrix


def _random_kappa(
    rng: np.random.Generator, matrix: sp.csr_matrix, *, extremes: bool = False
) -> np.ndarray:
    """Random κ, forced to 0 on rows without off-diagonal mass."""
    n = matrix.shape[0]
    if extremes:
        kappa = rng.choice([0.0, 1.0], size=n, p=[0.6, 0.4])
    else:
        kappa = rng.uniform(0.0, 0.95, size=n)
    off_mass = np.asarray(matrix.sum(axis=1)).ravel() - matrix.diagonal()
    kappa[off_mass <= 0.0] = 0.0
    return kappa


def generate_case_suite(seed: int = 0, *, n: int = 24) -> list[GraphCase]:
    """The seeded adversarial graph suite the oracle runs on.

    Covers the structural features named in the ISSUE: dangling rows,
    κ ∈ {0, 1} extremes under both ``full_throttle`` readings, and
    disconnected components — plus a mixed-κ base case and a κ = 0
    identity case that pins the untouched path.
    """
    rng = np.random.default_rng(seed)
    cases: list[GraphCase] = []

    base = _random_stochastic(rng, n)
    cases.append(
        GraphCase("mixed-kappa", base, _random_kappa(rng, base))
    )

    n_dangling = max(2, n // 6)
    dangling_ids = rng.choice(n, size=n_dangling, replace=False)
    dangle = _random_stochastic(rng, n, dangling=dangling_ids)
    cases.append(
        GraphCase("dangling-rows", dangle, _random_kappa(rng, dangle))
    )

    extremes = _random_stochastic(rng, n)
    kappa_ext = _random_kappa(rng, extremes, extremes=True)
    cases.append(GraphCase("kappa-extremes-self", extremes, kappa_ext, "self"))
    cases.append(
        GraphCase("kappa-extremes-dangling", extremes, kappa_ext, "dangling")
    )

    half = n // 2
    block_a = _random_stochastic(rng, half)
    block_b = _random_stochastic(rng, n - half)
    blocks = sp.block_diag([block_a, block_b], format="csr")
    cases.append(
        GraphCase("disconnected", blocks, _random_kappa(rng, blocks))
    )

    plain = _random_stochastic(rng, n)
    cases.append(
        GraphCase("no-throttle", plain, np.zeros(n, dtype=np.float64))
    )
    return cases


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def _run_combo(
    case: GraphCase,
    solver: str,
    operand_mode: str,
    params: RankingParams,
    blocked_base: BlockedOperator,
) -> ComboResult:
    label = f"audit:{case.name}:{solver}/{operand_mode}"
    if operand_mode == "lazy":
        operand = ThrottledOperator(
            case.matrix, case.kappa, full_throttle=case.full_throttle
        )
    elif operand_mode == "blocked":
        operand = ThrottledOperator(
            blocked_base, case.kappa, full_throttle=case.full_throttle
        )
    else:
        operand = throttle_transform(
            case.matrix, case.kappa, full_throttle=case.full_throttle
        )
    result = solver_registry.solve(operand, params, solver=solver, label=label)
    return ComboResult(
        solver=solver,
        operand=operand_mode,
        scores=np.asarray(result.scores, dtype=np.float64),
        iterations=int(result.convergence.iterations),
        converged=bool(result.convergence.converged),
    )


def run_differential_oracle(
    cases: Sequence[GraphCase] | None = None,
    *,
    seed: int = 0,
    atol: float = AGREEMENT_ATOL,
    tolerance: float = SOLVE_TOLERANCE,
    alpha: float = 0.85,
    solvers: Sequence[str] | None = None,
    strict: bool = False,
) -> DifferentialReport:
    """Run every solver × operand combination and cross-check.

    Parameters
    ----------
    cases:
        Graph cases to exercise; defaults to
        :func:`generate_case_suite` seeded with ``seed``.
    seed:
        Suite generation seed (recorded in the report).
    atol:
        Maximum allowed elementwise difference between any two paths'
        normalized score vectors.
    tolerance:
        Inner solve tolerance (see :data:`SOLVE_TOLERANCE`).
    alpha:
        Mixing parameter for all solves.
    solvers:
        Solver names to run; defaults to every registered solver.
    strict:
        When True, a failing report raises
        :class:`~repro.errors.AuditError` (via
        :func:`~repro.audit.invariants.record_violations`); default is
        report-only.

    Returns
    -------
    DifferentialReport
        Per-case combo inventory plus every disagreeing pair; also
        increments ``repro_audit_violations_total`` (invariant
        ``"differential"``) for each disagreement.
    """
    if cases is None:
        cases = generate_case_suite(seed)
    solver_names = tuple(solvers) if solvers else solver_registry.names()
    params = RankingParams(
        alpha=alpha, tolerance=tolerance, max_iter=20_000
    )
    report = DifferentialReport(seed=seed, atol=atol, tolerance=tolerance)

    for case in cases:
        combos: list[ComboResult] = []
        with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
            # Round-trip the case matrix through an on-disk sharded store
            # (several blocks, so block boundaries are exercised); the
            # blocked operand solves out-of-core from this store.
            store = ShardedGraphStore.from_matrix(
                case.matrix, tmp, block_size=max(1, case.n // 3)
            )
            with BlockedOperator(store, cache_blocks=2) as blocked_base:
                for solver in solver_names:
                    for operand_mode in ("lazy", "materialized", "blocked"):
                        combos.append(
                            _run_combo(
                                case, solver, operand_mode, params, blocked_base
                            )
                        )
            report.n_combos += len(combos)

            # Structural invariants on the materialized transform and on
            # every path's score vector — the oracle doubles as an
            # invariant sweep over the exact artifacts it solved with.
            throttled = throttle_transform(
                case.matrix, case.kappa, full_throttle=case.full_throttle
            )
            report.invariant_violations.extend(
                check_throttled_matrix(
                    case.matrix,
                    case.kappa,
                    throttled,
                    full_throttle=case.full_throttle,
                    subject=f"{case.name}:T''",
                )
            )
            # Per-block sweep over the out-of-core path: the store's rows
            # are stochastic block by block, and the throttle algebra the
            # blocked solve applies matches the Section 3.3 transform on
            # every block slice.
            report.invariant_violations.extend(
                check_row_stochastic_blocks(
                    store, subject=f"{case.name}:T'(blocked)"
                )
            )
            with BlockedOperator(store, cache_blocks=2) as blocked_base:
                report.invariant_violations.extend(
                    check_throttled_operator_blocks(
                        ThrottledOperator(
                            blocked_base,
                            case.kappa,
                            full_throttle=case.full_throttle,
                        ),
                        subject=f"{case.name}:T''(blocked)",
                    )
                )
        for combo in combos:
            report.invariant_violations.extend(
                check_score_distribution(
                    combo.scores, subject=f"{case.name}:{combo.key}"
                )
            )

        max_diff = 0.0
        for i, a in enumerate(combos):
            for b in combos[i + 1 :]:
                diff = float(np.max(np.abs(a.scores - b.scores)))
                max_diff = max(max_diff, diff)
                if diff > atol:
                    report.disagreements.append(
                        Disagreement(
                            case=case.name,
                            combo_a=a.key,
                            combo_b=b.key,
                            max_abs_diff=diff,
                            atol=atol,
                        )
                    )
        report.cases.append(
            {
                "name": case.name,
                "n": case.n,
                "full_throttle": case.full_throttle,
                "n_combos": len(combos),
                "max_pairwise_diff": max_diff,
                "combos": [
                    {
                        "key": c.key,
                        "iterations": c.iterations,
                        "converged": c.converged,
                    }
                    for c in combos
                ],
            }
        )

    if report.disagreements or report.invariant_violations:
        violations = [
            InvariantViolation(
                "differential",
                f"{d.case}:{d.combo_a} vs {d.combo_b}",
                f"score vectors differ by {d.max_abs_diff:.3e} "
                f"(atol {d.atol:.1e})",
                value=d.max_abs_diff,
            )
            for d in report.disagreements
        ]
        violations.extend(report.invariant_violations)
        record_violations(violations, strict=strict)
    return report
