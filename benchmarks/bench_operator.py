#!/usr/bin/env python
"""Operator-layer benchmark: materialized vs lazy SR-SourceRank.

Times the two ways of computing Spam-Resilient SourceRank —

* **materialized**: build the explicit throttled matrix ``T''`` with
  :func:`repro.throttle.transform.throttle_transform`, then power-iterate
  on it (the pre-operator-layer code path);
* **lazy**: power-iterate directly on a
  :class:`~repro.linalg.ThrottledOperator` over the base matrix, never
  materializing ``T''``

— plus a 5-point κ-sweep in both styles, where the lazy path additionally
reuses one base :class:`~repro.linalg.CsrOperator` (one transposed CSR)
across every κ while the materialized path rebuilds everything per point.

Writes ``benchmarks/results/BENCH_operator.json``.  The script is a
regression gate as well as a bench: it exits non-zero if the lazy and
materialized score vectors disagree beyond 1e-9, in any mode.  Run with
``--quick`` in CI for a small graph and fewer repeats (timings are
recorded but not asserted there — CI boxes are noisy; the equivalence
check is the hard gate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_operator.json"

EQUIVALENCE_ATOL = 1e-9


def build_source_graph(n_sources: int, seed: int):
    """A consensus-weighted source graph from a synthetic page graph."""
    from repro.datasets import load_dataset
    from repro.sources import SourceAssignment, SourceGraph

    if n_sources <= 200:
        ds = load_dataset("tiny")
        return SourceGraph.from_page_graph(ds.graph, ds.assignment)
    from repro.graph import PageGraph

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
    return SourceGraph.from_page_graph(graph, assignment)


def time_repeats(fn, repeats: int) -> tuple[float, object]:
    """Best-of-N wall time plus the last return value."""
    best = np.inf
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def run(quick: bool, seed: int) -> dict:
    from repro.config import RankingParams
    from repro.linalg import CsrOperator, ThrottledOperator
    from repro.ranking.power import power_iteration
    from repro.throttle.transform import throttle_transform
    from repro.throttle.vector import ThrottleVector

    n_sources = 200 if quick else 3000
    repeats = 2 if quick else 3
    params = RankingParams(tolerance=1e-9, max_iter=2000)

    source_graph = build_source_graph(n_sources, seed)
    matrix = source_graph.matrix
    n = matrix.shape[0]
    gen = np.random.default_rng(seed)
    kappa = gen.random(n)
    kappa[gen.random(n) < 0.5] = 0.0  # throttle roughly half the sources
    tv = ThrottleVector(kappa)

    report: dict = {
        "n_sources": int(n),
        "nnz": int(matrix.nnz),
        "quick": quick,
        "seed": seed,
        "equivalence_atol": EQUIVALENCE_ATOL,
    }

    # --- single solve: materialized vs lazy -------------------------------
    def materialized_once():
        t2 = throttle_transform(matrix, tv, full_throttle="self")
        return power_iteration(t2, params, label="materialized")

    def lazy_once():
        op = ThrottledOperator(matrix, tv, full_throttle="self")
        return power_iteration(op, params, label="lazy")

    t_mat, r_mat = time_repeats(materialized_once, repeats)
    t_lazy, r_lazy = time_repeats(lazy_once, repeats)
    max_diff = float(np.abs(r_mat.scores - r_lazy.scores).max())
    report["single_solve"] = {
        "materialized_seconds": t_mat,
        "lazy_seconds": t_lazy,
        "speedup": t_mat / t_lazy if t_lazy > 0 else None,
        "max_score_diff": max_diff,
        "iterations": r_lazy.convergence.iterations,
    }
    ok = max_diff <= EQUIVALENCE_ATOL

    # --- 5-point kappa sweep ---------------------------------------------
    sweep_points = [0.0, 0.25, 0.5, 0.75, 1.0]

    def materialized_sweep():
        out = []
        for level in sweep_points:
            t2 = throttle_transform(
                matrix, ThrottleVector(kappa * level), full_throttle="self"
            )
            out.append(power_iteration(t2, params, label="sweep-mat"))
        return out

    def lazy_sweep():
        out = []
        base = CsrOperator(matrix)  # one base matrix, one A^T CSR
        for level in sweep_points:
            op = ThrottledOperator(base, kappa * level, full_throttle="self")
            out.append(power_iteration(op, params, label="sweep-lazy"))
        return out

    t_mat_sweep, r_mat_sweep = time_repeats(materialized_sweep, repeats)
    t_lazy_sweep, r_lazy_sweep = time_repeats(lazy_sweep, repeats)
    sweep_diffs = [
        float(np.abs(a.scores - b.scores).max())
        for a, b in zip(r_mat_sweep, r_lazy_sweep)
    ]
    report["kappa_sweep"] = {
        "points": sweep_points,
        "materialized_seconds": t_mat_sweep,
        "lazy_seconds": t_lazy_sweep,
        "speedup": t_mat_sweep / t_lazy_sweep if t_lazy_sweep > 0 else None,
        "max_score_diff": max(sweep_diffs),
        "per_point_diffs": sweep_diffs,
    }
    ok = ok and max(sweep_diffs) <= EQUIVALENCE_ATOL

    # --- telemetry overhead: one tracer + live endpoint vs bare solve -----
    # The ledger tracks ``telemetry_overhead.overhead_fraction`` with an
    # absolute ceiling (0.05): activating a tracer (solve span, events)
    # with the scrape endpoint serving it must not cost more than 5% of
    # solve wall time.  Profiling stays off — it is the one switch
    # documented as expensive.
    from urllib.request import urlopen

    from repro.observability import TelemetryServer, Tracer

    tel_repeats = max(repeats, 5)  # sub-ms solves need extra repeats
    tracer = Tracer()
    server = TelemetryServer(tracer=tracer).start()
    try:
        with tracer.activate():
            lazy_once()  # warm-up: first emit pays one-time lazy init
        t_plain, _ = time_repeats(lazy_once, tel_repeats)
        with tracer.activate():
            t_tel, _ = time_repeats(lazy_once, tel_repeats)
        # Prove the endpoint was actually live alongside the timed solves.
        with urlopen(server.url("/health"), timeout=5.0) as resp:
            endpoint_ok = resp.status == 200
    finally:
        server.stop()
    report["telemetry_overhead"] = {
        "plain_seconds": t_plain,
        "telemetry_seconds": t_tel,
        "overhead_fraction": (t_tel - t_plain) / t_plain if t_plain > 0 else None,
        "events_emitted": tracer.events_emitted,
        "endpoint_ok": endpoint_ok,
        "run_id": tracer.run_id,
    }

    report["equivalent"] = ok
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graph + fewer repeats (CI mode; equivalence still gates)",
    )
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--out", type=Path, default=RESULTS_PATH, help="output JSON path"
    )
    args = parser.parse_args(argv)

    report = run(args.quick, args.seed)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    single = report["single_solve"]
    sweep = report["kappa_sweep"]
    print(f"operator bench (n={report['n_sources']}, nnz={report['nnz']}):")
    print(
        f"  single solve: materialized {single['materialized_seconds']:.4f}s, "
        f"lazy {single['lazy_seconds']:.4f}s "
        f"(x{single['speedup']:.2f}); max |diff| {single['max_score_diff']:.2e}"
    )
    print(
        f"  5-point sweep: materialized {sweep['materialized_seconds']:.4f}s, "
        f"lazy {sweep['lazy_seconds']:.4f}s "
        f"(x{sweep['speedup']:.2f}); max |diff| {sweep['max_score_diff']:.2e}"
    )
    tel = report["telemetry_overhead"]
    print(
        f"  telemetry: bare {tel['plain_seconds']:.4f}s, "
        f"tracer+endpoint {tel['telemetry_seconds']:.4f}s "
        f"(overhead {tel['overhead_fraction']:+.2%}, "
        f"{tel['events_emitted']} events)"
    )
    print(f"  wrote {args.out}")
    if not report["equivalent"]:
        print(
            f"FAIL: lazy and materialized scores differ beyond "
            f"{EQUIVALENCE_ATOL:g}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
