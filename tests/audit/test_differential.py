"""The differential oracle: agreement on the real stack, detection of bugs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.audit.differential import (
    AGREEMENT_ATOL,
    DifferentialReport,
    generate_case_suite,
    run_differential_oracle,
)
from repro.errors import AuditError
from repro.linalg.registry import BUILTIN_SOLVERS, solver_registry
from repro.ranking.base import RankingResult


class TestCaseSuite:
    def test_suite_is_deterministic(self):
        a = generate_case_suite(5)
        b = generate_case_suite(5)
        assert [c.name for c in a] == [c.name for c in b]
        for ca, cb in zip(a, b):
            assert (ca.matrix != cb.matrix).nnz == 0
            np.testing.assert_array_equal(ca.kappa, cb.kappa)

    def test_suite_covers_required_structures(self):
        cases = {c.name: c for c in generate_case_suite(0)}
        dangle = cases["dangling-rows"]
        sums = np.asarray(dangle.matrix.sum(axis=1)).ravel()
        assert (sums == 0).any(), "dangling case must contain zero rows"
        assert (dangle.kappa[sums == 0] == 0).all()
        ext = cases["kappa-extremes-self"]
        assert set(np.unique(ext.kappa)) <= {0.0, 1.0}
        assert (ext.kappa == 1.0).any() and (ext.kappa == 0.0).any()
        assert cases["kappa-extremes-dangling"].full_throttle == "dangling"
        assert (cases["no-throttle"].kappa == 0).all()

    def test_rows_are_stochastic(self):
        for case in generate_case_suite(1):
            sums = np.asarray(case.matrix.sum(axis=1)).ravel()
            nonzero = sums != 0
            np.testing.assert_allclose(sums[nonzero], 1.0, atol=1e-12)


class TestOracle:
    def test_all_registered_combinations_agree(self):
        """The acceptance bar: every solver x operand path agrees to 1e-9
        on the full seeded suite."""
        report = run_differential_oracle(seed=0)
        assert report.passed, report.to_json()
        assert report.disagreements == []
        assert report.invariant_violations == []
        # Each solver runs the lazy, materialized and blocked operands.
        assert len(report.cases) == 6
        assert report.n_combos == 54
        for case in report.cases:
            assert case["max_pairwise_diff"] <= AGREEMENT_ATOL
            assert all(c["converged"] for c in case["combos"])
            assert sorted(c["key"] for c in case["combos"]) == sorted(
                f"{solver}/{operand}"
                for solver in BUILTIN_SOLVERS
                for operand in ("lazy", "materialized", "blocked")
            )

    def test_report_json_roundtrip(self, tmp_path):
        report = run_differential_oracle(
            seed=1, solvers=("power",), cases=generate_case_suite(1)[:1]
        )
        path = report.write(tmp_path / "sub" / "report.json")
        loaded = json.loads(path.read_text())
        assert loaded["passed"] is True
        assert loaded["seed"] == 1
        # power on the lazy, materialized and blocked operands.
        assert loaded["cases"][0]["n_combos"] == 3

    def test_oracle_catches_a_broken_solver(self):
        """A solver with a perturbed score vector must be flagged against
        every other path (and strict mode must raise)."""

        def broken(operand, params, *, label="", **kwargs):
            result = solver_registry.get("power")(
                operand, params, label=label, **kwargs
            )
            scores = result.scores.copy()
            scores[0] += 1e-6  # a bug 1000x over tolerance
            return RankingResult(scores, result.convergence, label=label)

        solver_registry.register("broken-for-test", broken)
        cases = generate_case_suite(2)[:1]
        report = run_differential_oracle(
            cases=cases, solvers=("power", "broken-for-test")
        )
        assert not report.passed
        assert report.disagreements
        worst = max(d.max_abs_diff for d in report.disagreements)
        assert worst > AGREEMENT_ATOL
        assert any(
            "broken-for-test" in (d.combo_a + d.combo_b)
            for d in report.disagreements
        )
        with pytest.raises(AuditError):
            run_differential_oracle(
                cases=cases,
                solvers=("power", "broken-for-test"),
                strict=True,
            )

    def test_summary_mentions_status(self):
        report = DifferentialReport(seed=0, atol=1e-9, tolerance=1e-12)
        assert "PASS" in report.summary()
