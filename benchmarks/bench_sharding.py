#!/usr/bin/env python
"""Sharded-substrate benchmark: out-of-core solving vs the in-memory path.

Measures the three claims the sharded graph substrate makes:

* **scaling** — SR-SourceRank solve time over a
  :class:`~repro.linalg.BlockedOperator` stays near-flat as the same
  graph is re-sharded into more (smaller) row blocks: the per-iteration
  work is one decode + scatter pass over the same edges regardless of
  how they are partitioned, so the max/min solve-time ratio across block
  counts is the gate (``scaling.max_over_min_ratio``, absolute bound 2).
* **memory** — the sharded solve's peak RSS stays below the materialized
  baseline's.  Each measurement runs in a fresh *spawned* subprocess so
  ``ru_maxrss`` reflects exactly one code path; a null child (imports +
  store open, no solve) is measured too and subtracted from both, so the
  gated ratio (``memory.sharded_over_baseline``) compares the solve
  footprints, not the interpreter's.
* **equivalence** — blocked and materialized solves agree to 1e-9
  elementwise (both run at an inner tolerance of 1e-12; the differential
  oracle proves the same bound across every solver, this bench proves it
  at scale).

Plus shard decode throughput (edges/s with digest verification — the
honest per-sweep cost of an out-of-core iteration).

Writes ``benchmarks/results/BENCH_sharding.json``; the ledger tracks the
metrics above.  ``--quick`` runs a small graph for CI (timings recorded,
equivalence still the hard gate; the memory ratio is only meaningful at
full scale where the matrix dwarfs the interpreter).
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing as mp
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_sharding.json"

EQUIVALENCE_ATOL = 1e-9
SOLVE_TOLERANCE = 1e-9
EQUIVALENCE_SOLVE_TOLERANCE = 1e-12


def _make_kappa(n: int, seed: int) -> np.ndarray:
    """Deterministic throttle vector: ~1% fully throttled, ~2% partial."""
    rng = np.random.default_rng([seed, 7])
    kappa = np.zeros(n, dtype=np.float64)
    full = rng.choice(n, size=max(1, n // 100), replace=False)
    partial = rng.choice(n, size=max(1, n // 50), replace=False)
    kappa[partial] = 0.5
    kappa[full] = 1.0
    return kappa


def _blocked_solve(
    store_dir: str,
    kappa: np.ndarray,
    *,
    tolerance: float,
    cache_blocks: int = 2,
):
    from repro.config import RankingParams
    from repro.linalg import BlockedOperator, ThrottledOperator
    from repro.linalg.registry import solver_registry

    params = RankingParams(tolerance=tolerance, max_iter=5000)
    with BlockedOperator(store_dir, cache_blocks=cache_blocks) as base:
        operand = ThrottledOperator(base, kappa, full_throttle="dangling")
        return solver_registry.solve(
            operand, params, solver="power", label="bench-sharding"
        )


def _reshard(store, out_dir: Path, factor: int):
    """Rewrite a store with ``factor``x coarser blocks (same rows/edges)."""
    import scipy.sparse as sp

    from repro.webgraph.store import ShardedStoreWriter

    writer = ShardedStoreWriter(
        out_dir, store.n_sources, block_size=store.block_size * factor
    )
    pending = []
    for _info, block in store.iter_blocks():
        pending.append(block)
        if len(pending) == factor:
            writer.append_matrix(sp.vstack(pending, format="csr"))
            pending = []
    if pending:
        writer.append_matrix(sp.vstack(pending, format="csr"))
    return writer.finalize(meta=dict(store.meta or {}, resharded_by=factor))


# ----------------------------------------------------------------------
# Peak-RSS measurement (one code path per spawned child)
# ----------------------------------------------------------------------
def _peak_rss_mb() -> float:
    """This process's own peak resident set, in MB.

    ``ru_maxrss`` is inherited across fork+exec on Linux, so a spawned
    child whose parent already peaked high would report the *parent's*
    peak.  ``VmHWM`` lives on the mm and is reset by exec, so it reflects
    only this process; fall back to ``ru_maxrss`` where /proc is absent.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure_child(mode: str, store_dir: str, seed: int, queue) -> None:
    """Run one code path and report its peak RSS + solve time.

    Spawned (not forked) so the child's ``ru_maxrss`` covers exactly its
    own imports + this one path, with no memory inherited from the bench.
    """
    t0 = time.perf_counter()
    out = {"mode": mode, "solve_seconds": None, "iterations": None}
    from repro.webgraph.store import ShardedGraphStore

    store = ShardedGraphStore.open(store_dir)
    n = store.n_sources
    if mode != "null":
        kappa = _make_kappa(n, seed)
        if mode == "baseline":
            from repro.config import RankingParams
            from repro.linalg import CsrOperator, ThrottledOperator
            from repro.linalg.registry import solver_registry

            matrix = store.materialize()
            operand = ThrottledOperator(
                CsrOperator(matrix), kappa, full_throttle="dangling"
            )
            t1 = time.perf_counter()
            result = solver_registry.solve(
                operand,
                RankingParams(tolerance=SOLVE_TOLERANCE, max_iter=5000),
                solver="power",
                label="bench-sharding-baseline",
            )
        else:
            t1 = time.perf_counter()
            result = _blocked_solve(
                store_dir, kappa, tolerance=SOLVE_TOLERANCE
            )
        out["solve_seconds"] = time.perf_counter() - t1
        out["iterations"] = int(result.convergence.iterations)
    out["total_seconds"] = time.perf_counter() - t0
    out["peak_rss_mb"] = _peak_rss_mb()
    queue.put(out)


def _measure_rss(mode: str, store_dir: str, seed: int) -> dict:
    ctx = mp.get_context("spawn")
    queue = ctx.Queue()
    proc = ctx.Process(
        target=_measure_child, args=(mode, store_dir, seed, queue)
    )
    proc.start()
    out = queue.get()
    proc.join()
    return out


# ----------------------------------------------------------------------
def run(quick: bool, seed: int, workdir: Path) -> dict:
    from repro.datasets import SyntheticSourceConfig, generate_source_store
    from repro.throttle.transform import throttle_transform
    from repro.linalg.registry import solver_registry
    from repro.config import RankingParams

    n_sources = 60_000 if quick else 1_000_000
    block_counts = [4, 2] if quick else [32, 16, 8, 4]
    finest = max(block_counts)
    block_size = math.ceil(n_sources / finest)

    report: dict = {
        "n_sources": n_sources,
        "quick": quick,
        "seed": seed,
        "equivalence_atol": EQUIVALENCE_ATOL,
        "solve_tolerance": SOLVE_TOLERANCE,
    }

    # --- generation: shard-at-a-time, never holding the edge list ---------
    config = SyntheticSourceConfig(n_sources=n_sources, seed=seed)
    t0 = time.perf_counter()
    stores = {
        finest: generate_source_store(
            config, workdir / f"blocks-{finest}", block_size=block_size
        )
    }
    gen_seconds = time.perf_counter() - t0
    base_store = stores[finest]
    report["generate"] = {
        "seconds": gen_seconds,
        "n_edges": base_store.n_edges,
        "n_blocks": base_store.n_blocks,
        "payload_bytes": base_store.payload_bytes,
        "bits_per_edge": 8.0 * base_store.payload_bytes / base_store.n_edges,
        "edges_per_second": base_store.n_edges / gen_seconds,
    }
    for count in block_counts:
        if count not in stores:
            stores[count] = _reshard(
                base_store, workdir / f"blocks-{count}", finest // count
            )

    kappa = _make_kappa(n_sources, seed)

    # --- solve-time scaling across block counts ---------------------------
    # cache_blocks=1 so every point is genuinely out-of-core: a cache
    # that fits the whole store would degenerate to the in-memory path
    # and make the smallest block count spuriously fast.
    points = []
    for count in sorted(block_counts):
        store = stores[count]
        t0 = time.perf_counter()
        result = _blocked_solve(
            str(store.directory),
            kappa,
            tolerance=SOLVE_TOLERANCE,
            cache_blocks=1,
        )
        seconds = time.perf_counter() - t0
        points.append(
            {
                "n_blocks": store.n_blocks,
                "block_size": store.block_size,
                "solve_seconds": seconds,
                "iterations": int(result.convergence.iterations),
                "converged": bool(result.convergence.converged),
            }
        )
    times = [p["solve_seconds"] for p in points]
    report["scaling"] = {
        "block_counts": [p["n_blocks"] for p in points],
        "points": points,
        "min_seconds": min(times),
        "max_seconds": max(times),
        "max_over_min_ratio": max(times) / min(times),
    }

    # --- blocked == materialized equivalence ------------------------------
    blocked = _blocked_solve(
        str(base_store.directory),
        kappa,
        tolerance=EQUIVALENCE_SOLVE_TOLERANCE,
    )
    matrix = base_store.materialize()
    operand = throttle_transform(matrix, kappa, full_throttle="dangling")
    materialized = solver_registry.solve(
        operand,
        RankingParams(tolerance=EQUIVALENCE_SOLVE_TOLERANCE, max_iter=5000),
        solver="power",
        label="bench-sharding-materialized",
    )
    max_diff = float(np.abs(blocked.scores - materialized.scores).max())
    report["equivalence"] = {
        "max_score_diff": max_diff,
        "blocked_iterations": int(blocked.convergence.iterations),
        "materialized_iterations": int(materialized.convergence.iterations),
    }
    ok = max_diff <= EQUIVALENCE_ATOL
    del matrix, operand, blocked, materialized

    # --- peak RSS: sharded vs materialized baseline -----------------------
    store_dir = str(base_store.directory)
    null_rss = _measure_rss("null", store_dir, seed)
    baseline_rss = _measure_rss("baseline", store_dir, seed)
    sharded_rss = _measure_rss("sharded", store_dir, seed)
    base_net = baseline_rss["peak_rss_mb"] - null_rss["peak_rss_mb"]
    shard_net = sharded_rss["peak_rss_mb"] - null_rss["peak_rss_mb"]
    report["memory"] = {
        "null_peak_mb": null_rss["peak_rss_mb"],
        "baseline_peak_mb": baseline_rss["peak_rss_mb"],
        "sharded_peak_mb": sharded_rss["peak_rss_mb"],
        "baseline_net_mb": base_net,
        "sharded_net_mb": shard_net,
        "sharded_over_baseline": (
            shard_net / base_net if base_net > 0 else None
        ),
        "baseline_solve_seconds": baseline_rss["solve_seconds"],
        "sharded_solve_seconds": sharded_rss["solve_seconds"],
    }

    # --- decode throughput (with digest verification) ---------------------
    t0 = time.perf_counter()
    decoded_edges = 0
    for _info, block in base_store.iter_blocks():
        decoded_edges += block.nnz
    decode_seconds = time.perf_counter() - t0
    report["decode"] = {
        "seconds": decode_seconds,
        "edges": decoded_edges,
        "edges_per_second": decoded_edges / decode_seconds,
        "payload_mb_per_second": (
            base_store.payload_bytes / 1e6 / decode_seconds
        ),
    }

    report["equivalent"] = ok
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graph (CI mode; equivalence still gates)",
    )
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--out", type=Path, default=RESULTS_PATH, help="output JSON path"
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-sharding-") as tmp:
        report = run(args.quick, args.seed, Path(tmp))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    gen = report["generate"]
    scaling = report["scaling"]
    memory = report["memory"]
    decode = report["decode"]
    print(
        f"sharding bench (n={report['n_sources']:,}, "
        f"edges={gen['n_edges']:,}):"
    )
    print(
        f"  generate: {gen['seconds']:.1f}s "
        f"({gen['edges_per_second']:.0f} edges/s, "
        f"{gen['bits_per_edge']:.2f} bits/edge)"
    )
    for p in scaling["points"]:
        print(
            f"  solve @ {p['n_blocks']:3d} blocks: {p['solve_seconds']:.2f}s "
            f"({p['iterations']} iters)"
        )
    print(
        f"  scaling ratio (max/min): {scaling['max_over_min_ratio']:.2f}"
    )
    print(
        f"  equivalence: max |diff| {report['equivalence']['max_score_diff']:.2e}"
    )
    ratio = memory["sharded_over_baseline"]
    print(
        f"  peak RSS: baseline {memory['baseline_peak_mb']:.0f} MB, "
        f"sharded {memory['sharded_peak_mb']:.0f} MB "
        f"(net ratio {ratio:.2f})" if ratio is not None else
        f"  peak RSS: baseline {memory['baseline_peak_mb']:.0f} MB, "
        f"sharded {memory['sharded_peak_mb']:.0f} MB"
    )
    print(
        f"  decode: {decode['edges_per_second'] / 1e6:.1f}M edges/s "
        f"(verified, {decode['payload_mb_per_second']:.0f} MB/s)"
    )
    print(f"  wrote {args.out}")
    if not report["equivalent"]:
        print(
            f"FAIL: blocked and materialized scores differ beyond "
            f"{EQUIVALENCE_ATOL:g}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
