"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` keeps the two
in step.  Every workload prints every metric of its mode: a layer a
workload does not exercise reads 0 there (see ``perfbench/README.md``).
"""

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "rank_s": "s",
    "peak_rss_mb": "MiB",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "topk_p50_ms": "ms",
    "read_rps": "1/s",
    "adopt_lag_s": "s",
}

_RMATVEC_TAGS = ("csr", "reversed", "throttled", "blocked")
#: Layers a rank call passes through; their self times add up to ``rank_s``.
RANK_LAYERS = ("core", "sources", "throttle", "ranking", "linalg", "webgraph")

PER_LAYER: dict[str, str] = {
    "core.self_s": "s",
    "sources.from_page_graph_s": "s",
    "sources.quotient_s": "s",
    "sources.page_edges": "count",
    "sources.source_edges": "count",
    "throttle.proximity_s": "s",
    "throttle.proximity_iterations": "count",
    "throttle.assign_kappa_s": "s",
    "ranking.solve_s": "s",
    "ranking.iterations": "count",
    "ranking.iterate_self_s": "s",
    **{f"linalg.rmatvec_calls.{tag}": "count" for tag in _RMATVEC_TAGS},
    **{f"linalg.rmatvec_self_s.{tag}": "s" for tag in _RMATVEC_TAGS},
    "linalg.open_s": "s",
    "linalg.block_cache_hit_ratio": "ratio",
    "webgraph.load_block_calls": "count",
    "webgraph.load_block_s": "s",
    "webgraph.decoded_mb": "MB",
    **{f"layer_self_s.{layer}": "s" for layer in RANK_LAYERS},
    "trace.layer_sum_ratio": "ratio",
    "snapshot.publish_s": "s",
    "snapshot.latest_s": "s",
    "fleet.handle_ms.score": "ms",
    "fleet.handle_ms.percentile": "ms",
    "fleet.handle_ms.top_k": "ms",
    "fleet.first_percentile_ms": "ms",
    "fleet.replica_cpu_frac": "ratio",
    "fleet.idle_cpu_frac": "ratio",
    "frontend.batch_mean_ids": "ids",
    "frontend.hedges_fired": "count",
    "frontend.slow_ejections": "count",
    "frontend.evictions": "count",
    "frontend.shed": "count",
    "frontend.deadline_missed": "count",
    "frontend.backend_p50_ms": "ms",
    "frontend.backend_p99_ms": "ms",
    "frontend.self_p50_ms": "ms",
    "gen.late_p99_ms": "ms",
    "gen.pool_wait_p50_ms": "ms",
    **{f"overhead.{name}": unit for name, unit in END_TO_END.items() if name != "setup_s"},
}


def table(values: dict[str, float], units: dict[str, str]) -> dict[str, tuple[float, str]]:
    """Every metric of ``units``, 0 where the workload measured nothing."""
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"unlisted metrics: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in units.items()}
