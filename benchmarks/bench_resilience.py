#!/usr/bin/env python
"""Fault-injection benchmark: every failure mode must recover to the
fault-free σ.

Two scenarios, each timed against its fault-free baseline:

* **nan_fallback** — a seeded NaN corrupts the power iterate mid-solve;
  the guard trips :class:`~repro.errors.NumericalError` and the
  ``power → jacobi`` fallback chain warm-starts past it.
* **killed_process** — a *real* child process running a checkpointed
  solve is killed mid-iteration; the parent resumes from the last atomic
  checkpoint.

Writes ``benchmarks/results/BENCH_resilience.json`` including the metric
counters each recovery incremented.  The script is a regression gate: it
exits non-zero if any recovered σ differs from the fault-free σ beyond
1e-9 or an expected recovery counter stayed at zero.  ``--quick`` keeps
CI runtime low (the equivalence checks still gate).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_resilience.json"

RECOVERY_ATOL = 1e-9


def build_matrix(n_sources: int, seed: int):
    """A consensus-weighted source matrix from a synthetic page graph."""
    from repro.datasets import load_dataset
    from repro.graph import PageGraph
    from repro.sources import SourceAssignment, SourceGraph

    if n_sources <= 200:
        ds = load_dataset("tiny")
        return SourceGraph.from_page_graph(ds.graph, ds.assignment).matrix
    gen = np.random.default_rng(seed)
    n_pages = n_sources * 12
    n_edges = n_pages * 8
    graph = PageGraph.from_edges(
        gen.integers(0, n_pages, n_edges),
        gen.integers(0, n_pages, n_edges),
        n_pages,
    )
    ids = gen.integers(0, n_sources, n_pages)
    ids[:n_sources] = np.arange(n_sources)
    assignment = SourceAssignment(ids.astype(np.int64))
    return SourceGraph.from_page_graph(graph, assignment).matrix


def _counter(kind_metric: str, kind: str) -> float:
    from repro.observability.metrics import get_registry

    return (
        get_registry()
        .counter(kind_metric, labelnames=("kind",))
        .labels(kind=kind)
        .value
    )


# ----------------------------------------------------------------------
# Scenario 1: NaN-corrupted iterate → fallback chain
# ----------------------------------------------------------------------
def scenario_nan_fallback(matrix, params) -> dict:
    from repro.linalg.operator import CsrOperator
    from repro.ranking.power import power_iteration
    from repro.resilience import FallbackChain, FaultyOperator

    reference = power_iteration(matrix, params, label="fault-free")

    before = _counter("repro_guard_trips_total", "nan")
    t0 = time.perf_counter()
    faulty = FaultyOperator(CsrOperator(matrix), corrupt_at_call=5, seed=17)
    result = FallbackChain(("power", "jacobi")).solve(
        faulty, params, label="nan-recovery"
    )
    elapsed = time.perf_counter() - t0
    diff = float(np.abs(result.scores - reference.scores).max())
    return {
        "max_score_diff": diff,
        "recovered": diff <= RECOVERY_ATOL,
        "seconds": elapsed,
        "attempts": [a.solver for a in result.provenance],
        "guard_trips_nan": _counter("repro_guard_trips_total", "nan") - before,
        "fallbacks_solver": _counter("repro_fallbacks_total", "solver"),
    }


# ----------------------------------------------------------------------
# Scenario 2: child process killed mid-solve → checkpoint resume
# ----------------------------------------------------------------------
def _doomed_solve(matrix, params, directory: str, kill_at: int) -> None:
    """Child-process body: checkpointed solve that dies at iteration k."""
    from repro.ranking.power import power_iteration
    from repro.resilience import SolveCheckpointer, crash_at_iteration

    power_iteration(
        matrix,
        params.with_(
            checkpoint=SolveCheckpointer(directory, resume=False)
        ),
        label="doomed",
        callback=crash_at_iteration(kill_at, action=lambda: os._exit(3)),
    )


def scenario_killed_process(matrix, params) -> dict:
    from repro.ranking.power import power_iteration
    from repro.resilience import SolveCheckpointer

    reference = power_iteration(matrix, params, label="fault-free")
    kill_at = max(reference.convergence.iterations // 2, 2)

    before = _counter("repro_checkpoint_resumes_total", "solve")
    with tempfile.TemporaryDirectory() as directory:
        ctx = (
            mp.get_context("fork")
            if "fork" in mp.get_all_start_methods()
            else mp.get_context()
        )
        t0 = time.perf_counter()
        child = ctx.Process(
            target=_doomed_solve, args=(matrix, params, directory, kill_at)
        )
        child.start()
        child.join(timeout=120)
        exitcode = child.exitcode
        resumed = power_iteration(
            matrix,
            params.with_(
                checkpoint=SolveCheckpointer(directory, resume=True)
            ),
            label="doomed",
        )
        elapsed = time.perf_counter() - t0
    diff = float(np.abs(resumed.scores - reference.scores).max())
    return {
        "child_exitcode": exitcode,
        "killed_at_iteration": int(kill_at),
        "resumed_iterations": resumed.convergence.iterations,
        "reference_iterations": reference.convergence.iterations,
        "max_score_diff": diff,
        "recovered": bool(exitcode == 3 and diff <= RECOVERY_ATOL),
        "seconds": elapsed,
        "checkpoint_resumes_solve": _counter(
            "repro_checkpoint_resumes_total", "solve"
        )
        - before,
    }


def run(quick: bool, seed: int) -> dict:
    from repro.config import RankingParams, ResilienceParams

    n_sources = 200 if quick else 2000
    matrix = build_matrix(n_sources, seed)
    params = RankingParams(
        tolerance=1e-12,
        max_iter=2000,
        resilience=ResilienceParams(checkpoint_every=2),
    )

    report: dict = {
        "n_sources": int(matrix.shape[0]),
        "nnz": int(matrix.nnz),
        "quick": quick,
        "seed": seed,
        "recovery_atol": RECOVERY_ATOL,
        "scenarios": {
            "nan_fallback": scenario_nan_fallback(matrix, params),
            "killed_process": scenario_killed_process(matrix, params),
        },
    }
    scenarios = report["scenarios"]
    report["all_recovered"] = all(
        s["recovered"] for s in scenarios.values()
    )
    report["metrics_nonzero"] = bool(
        scenarios["nan_fallback"]["fallbacks_solver"] > 0
        and scenarios["killed_process"]["checkpoint_resumes_solve"] > 0
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graph (CI mode; recovery equivalence still gates)",
    )
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--out", type=Path, default=RESULTS_PATH, help="output JSON path"
    )
    args = parser.parse_args(argv)

    report = run(args.quick, args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"resilience bench (n={report['n_sources']}, nnz={report['nnz']}):")
    for name, s in report["scenarios"].items():
        state = "recovered" if s["recovered"] else "FAILED"
        print(
            f"  {name}: {state} in {s['seconds']:.3f}s "
            f"(max |diff| {s['max_score_diff']:.2e})"
        )
    print(f"  wrote {args.out}")
    if not report["all_recovered"]:
        print(
            f"FAIL: a faulted run did not recover to within "
            f"{RECOVERY_ATOL:g} of the fault-free scores",
            file=sys.stderr,
        )
        return 1
    if not report["metrics_nonzero"]:
        print(
            "FAIL: an expected recovery counter stayed at zero",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
