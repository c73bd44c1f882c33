#!/usr/bin/env python
"""Correctness-audit benchmark and CI gate.

Three parts, one JSON report:

* **invariant suite** — the pipeline runs end-to-end on a seeded web
  with the strict audit enabled; every stage-boundary invariant and the
  per-iteration mass check must hold.
* **differential oracle** — every registered solver ×
  {lazy, materialized, blocked} operator combination on the seeded
  adversarial graph suite (dangling rows, κ ∈ {0, 1}, disconnected components) must
  agree to 1e-9, plus the metamorphic relations.
* **overhead gate** — the pipeline with auditing *disabled* must run
  within ``OVERHEAD_GATE`` (5 %) of an identical reference run: the
  audit must cost nothing when off.  The enabled-audit overhead is
  also measured and reported, for information only.

Writes ``benchmarks/results/BENCH_audit.json`` (CI uploads it as an
artifact) and exits non-zero if the oracle finds a disagreement, an
invariant is violated, or the disabled-audit overhead exceeds the gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_audit.json"

#: Max tolerated slowdown of the pipeline with auditing disabled,
#: relative to an identical reference run (noise gate).
OVERHEAD_GATE = 0.05


def build_inputs(n_sources: int, seed: int):
    """A synthetic web (page graph + assignment + spam seeds)."""
    from repro.datasets import load_dataset, sample_seed_set

    if n_sources <= 200:
        ds = load_dataset("tiny")
    else:
        ds = load_dataset("uk2002_like")
    seeds = sample_seed_set(
        ds.spam_sources, 0.25, np.random.default_rng(seed)
    )
    return ds.graph, ds.assignment, seeds


# ----------------------------------------------------------------------
# Part 1: invariant suite (strict audit through the pipeline)
# ----------------------------------------------------------------------
def part_invariants(graph, assignment, seeds) -> dict:
    from repro.config import AuditParams, RankingParams, SpamProximityParams
    from repro.core.pipeline import SpamResilientPipeline
    from repro.errors import AuditError

    audit = AuditParams()
    t0 = time.perf_counter()
    try:
        with SpamResilientPipeline(
            ranking=RankingParams(audit=audit),
            proximity=SpamProximityParams(audit=audit),
        ) as pipe:
            result = pipe.rank(graph, assignment, spam_seeds=seeds)
        violations: list[str] = []
    except AuditError as exc:
        result = None
        violations = [str(v) for v in exc.violations]
    return {
        "seconds": time.perf_counter() - t0,
        "passed": not violations,
        "violations": violations,
        "n_sources": None if result is None else int(result.scores.n),
    }


# ----------------------------------------------------------------------
# Part 2: differential oracle + metamorphic relations
# ----------------------------------------------------------------------
def part_differential(seed: int, quick: bool) -> dict:
    from repro.audit import run_differential_oracle

    t0 = time.perf_counter()
    report = run_differential_oracle(seed=seed, strict=False)
    return {
        "seconds": time.perf_counter() - t0,
        "passed": report.passed,
        "summary": report.summary(),
        "report": report.to_dict(),
    }


def part_metamorphic(seed: int, quick: bool) -> dict:
    from repro.audit import run_metamorphic_suite

    t0 = time.perf_counter()
    report = run_metamorphic_suite(
        seed=seed, n=16 if quick else 32, n_graphs=2 if quick else 4
    )
    return {
        "seconds": time.perf_counter() - t0,
        "passed": report.passed,
        "summary": report.summary(),
        "report": report.to_dict(),
    }


# ----------------------------------------------------------------------
# Part 3: overhead of the (disabled) audit path
# ----------------------------------------------------------------------
def _time_pipeline(graph, assignment, seeds, audit, repeats: int) -> float:
    from repro.config import AuditParams, RankingParams, SpamProximityParams
    from repro.core.pipeline import SpamResilientPipeline

    best = float("inf")
    for _ in range(repeats):
        with SpamResilientPipeline(
            ranking=RankingParams(audit=audit),
            proximity=SpamProximityParams(audit=audit),
        ) as pipe:
            t0 = time.perf_counter()
            pipe.rank(graph, assignment, spam_seeds=seeds)
            best = min(best, time.perf_counter() - t0)
    return best


def part_overhead(graph, assignment, seeds, quick: bool) -> dict:
    from repro.config import AuditParams

    repeats = 3 if quick else 5
    _time_pipeline(graph, assignment, seeds, None, 1)  # warm-up
    reference = _time_pipeline(graph, assignment, seeds, None, repeats)
    disabled = _time_pipeline(graph, assignment, seeds, None, repeats)
    enabled = _time_pipeline(graph, assignment, seeds, AuditParams(), repeats)
    disabled_overhead = disabled / reference - 1.0
    return {
        "reference_seconds": reference,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "disabled_overhead": disabled_overhead,
        "enabled_overhead": enabled / reference - 1.0,
        "gate": OVERHEAD_GATE,
        "passed": disabled_overhead <= OVERHEAD_GATE,
    }


def run(quick: bool, seed: int) -> dict:
    n_sources = 200 if quick else 2000
    graph, assignment, seeds = build_inputs(n_sources, seed)
    report: dict = {
        "quick": quick,
        "seed": seed,
        "parts": {
            "invariants": part_invariants(graph, assignment, seeds),
            "differential": part_differential(seed, quick),
            "metamorphic": part_metamorphic(seed, quick),
            "overhead": part_overhead(graph, assignment, seeds, quick),
        },
    }
    report["passed"] = all(p["passed"] for p in report["parts"].values())
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graph + fewer repeats (CI mode; all gates still apply)",
    )
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--out", type=Path, default=RESULTS_PATH, help="output JSON path"
    )
    args = parser.parse_args(argv)

    report = run(args.quick, args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print("audit bench:")
    parts = report["parts"]
    for name in ("invariants", "differential", "metamorphic"):
        part = parts[name]
        state = "PASS" if part["passed"] else "FAIL"
        print(f"  {name}: {state} in {part['seconds']:.3f}s")
        if "summary" in part:
            print(f"    {part['summary']}")
        for violation in part.get("violations", []):
            print(f"    violation: {violation}")
    over = parts["overhead"]
    print(
        f"  overhead: disabled {over['disabled_overhead']:+.1%} "
        f"(gate {over['gate']:.0%}), enabled {over['enabled_overhead']:+.1%}"
        f" -> {'PASS' if over['passed'] else 'FAIL'}"
    )
    print(f"  wrote {args.out}")
    if not report["passed"]:
        print("AUDIT BENCH FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
