"""Command-line interface: ``python -m repro <command>``.

Subcommands
-----------
``rank``
    Rank a URL edge list (or a named synthetic dataset) with
    Spam-Resilient SourceRank, optionally seeded with a spam blocklist.
``figures``
    Regenerate the paper's tables/figures (all, or a named subset).
``dataset``
    Generate a named synthetic dataset and write it to disk
    (edge list + assignment + spam labels).
``stats``
    Print structural statistics of a graph file.
``serve``
    Run the fault-tolerant ranking service demo: bootstrap a snapshot
    store, stream graph updates (optionally fault-injected) through the
    guarded updater, and answer queries with full provenance.
``shard``
    Create or inspect sharded on-disk graph stores: convert an edge list
    (streamed, never materialized) or generate a synthetic source graph
    shard-at-a-time; print manifest/compression stats and verify digests.
    ``rank --graph-store DIR`` then ranks straight from such a store
    out-of-core.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["main", "build_parser", "ledger_main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Spam-Resilient SourceRank (Caverlee, Webb & Liu, IPPS 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="rank a web with SR-SourceRank")
    src = p_rank.add_mutually_exclusive_group(required=True)
    src.add_argument("--edges", type=Path, help="URL-pair edge list (src<TAB>dst)")
    src.add_argument("--dataset", help="named synthetic dataset (e.g. uk2002_like)")
    src.add_argument(
        "--graph-store",
        type=Path,
        help="sharded on-disk source-graph store (see 'repro shard'); "
        "ranks out-of-core without materializing the matrix",
    )
    p_rank.add_argument(
        "--blocklist", type=Path, help="file of known-spam hosts (or source ids), one per line"
    )
    p_rank.add_argument(
        "--store-cache",
        type=int,
        default=4,
        help="with --graph-store: decoded blocks to keep in memory",
    )
    p_rank.add_argument("--alpha", type=float, default=0.85)
    p_rank.add_argument(
        "--solver",
        default="power",
        help="ranking solver: power (default), jacobi, gauss_seidel, or any "
        "registered solver name",
    )
    p_rank.add_argument("--top", type=int, default=20, help="how many sources to print")
    p_rank.add_argument(
        "--key", choices=("host", "domain"), default="host", help="source grouping key"
    )
    p_rank.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write metrics + trace + solver telemetry (JSON; .prom for "
        "Prometheus text) to this path",
    )
    p_rank.add_argument(
        "--trace", action="store_true", help="print the per-stage trace tree"
    )
    p_rank.add_argument(
        "--fallback-solvers",
        default=None,
        help="comma-separated solver names to fail over to when the "
        "primary solver trips a guard (e.g. 'jacobi,power')",
    )
    p_rank.add_argument(
        "--audit",
        action="store_true",
        help="enable the runtime correctness audit (stage invariants + "
        "per-iteration mass conservation); violations abort the run "
        "with a typed AuditError",
    )
    p_rank.add_argument(
        "--audit-lenient",
        action="store_true",
        help="with --audit: log and count violations instead of raising",
    )
    p_rank.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="directory for stage + solve checkpoints (enables "
        "crash-resumable runs)",
    )
    p_rank.add_argument(
        "--resume",
        action="store_true",
        help="resume completed stages / partial solves from "
        "--checkpoint-dir instead of recomputing",
    )
    p_rank.add_argument(
        "--events-out",
        type=Path,
        default=None,
        help="append the run's correlated JSON-lines event log "
        "(pipeline stages, solves, fallbacks, checkpoints — one run_id) "
        "to this file",
    )
    p_rank.add_argument(
        "--profile",
        action="store_true",
        help="profile each pipeline stage and solve (cProfile + wall/CPU) "
        "and print the per-stage summary",
    )

    p_fig = sub.add_parser("figures", help="regenerate paper tables/figures")
    p_fig.add_argument(
        "artifacts",
        nargs="*",
        default=[],
        help="subset to run: table1 fig2 fig3 fig4 fig5 fig6 fig7 (default: all)",
    )
    p_fig.add_argument("--fast", action="store_true", help="tiny dataset only")
    p_fig.add_argument(
        "--out",
        type=Path,
        default=None,
        help="run EVERY artifact via the manifest runner and write text+JSON here",
    )
    p_fig.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write metrics + trace + solver telemetry (JSON; .prom for "
        "Prometheus text) to this path",
    )
    p_fig.add_argument(
        "--trace", action="store_true", help="print the per-artifact trace tree"
    )

    p_ds = sub.add_parser("dataset", help="generate a synthetic dataset to disk")
    p_ds.add_argument("name", help="registry name (uk2002_like, ...)")
    p_ds.add_argument("out", type=Path, help="output directory")
    p_ds.add_argument("--seed", type=int, default=None)

    p_stats = sub.add_parser("stats", help="print graph statistics")
    p_stats.add_argument("edges", type=Path, help="integer edge list file")

    p_serve = sub.add_parser(
        "serve", help="run the fault-tolerant ranking service demo"
    )
    p_serve.add_argument(
        "--dataset", default="tiny", help="named synthetic dataset to serve"
    )
    p_serve.add_argument(
        "--snapshot-dir",
        type=Path,
        required=True,
        help="snapshot store directory (reused across runs — restart "
        "recovery serves the newest healthy snapshot)",
    )
    p_serve.add_argument(
        "--updates", type=int, default=5, help="graph updates to stream"
    )
    p_serve.add_argument(
        "--queries", type=int, default=20, help="queries to answer per update"
    )
    p_serve.add_argument("--top", type=int, default=5, help="top-k size to print")
    p_serve.add_argument(
        "--inject",
        choices=("none", "nan", "crash"),
        default="none",
        help="fault to inject into every other update: 'nan' corrupts a "
        "matvec (the fallback chain recovers in-update), 'crash' kills "
        "the solve mid-iteration (the service degrades explicitly)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write the metrics registry (JSON; .prom for Prometheus "
        "text) to this path on exit",
    )
    p_serve.add_argument(
        "--events-out",
        type=Path,
        default=None,
        help="append the service's correlated JSON-lines event log "
        "(admissions, updates, snapshots, state transitions) to this file",
    )
    p_serve.add_argument(
        "--replicas",
        type=int,
        default=0,
        help="run the replicated fleet demo: spawn N read-only replica "
        "processes that adopt published snapshots and answer queries "
        "through the load-balancing asyncio front door (0 = "
        "single-process service demo)",
    )
    p_serve.add_argument(
        "--slo-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fleet only: per-read deadline budget at the front door "
        "(reads that burn it get a typed DeadlineExceededError response)",
    )
    p_serve.add_argument(
        "--slo-hedge-threshold",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fleet only: floor on the hedging trigger — a backup read "
        "fires on a second replica once the first attempt has been "
        "outstanding this long (or the tracked p95, whichever is larger)",
    )
    p_serve.add_argument(
        "--slo-retry-budget",
        type=float,
        default=None,
        metavar="PER_SECOND",
        help="fleet only: token-bucket refill rate shared by retries and "
        "hedges (burst = 2x the rate)",
    )
    p_serve.add_argument(
        "--slo-max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="fleet only: admission control — reads beyond this many in "
        "flight are shed with a typed AdmissionError carrying retry_after",
    )
    p_serve.add_argument(
        "--slo-eject-latency",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fleet only: quarantine a replica whose windowed p95 attempt "
        "latency exceeds this (slow-but-alive ejection)",
    )
    p_serve.add_argument(
        "--chaos",
        action="append",
        default=None,
        metavar="REPLICA:KIND[:k=v,...]",
        help="fleet only, repeatable: arm a seeded fault on one replica, "
        "e.g. '0:latency:latency_seconds=0.05,probability=0.5' or "
        "'1:reset:probability=0.2'; kinds: latency stall reset torn "
        "slow_adopt torn_publish disk_full",
    )
    p_serve.add_argument(
        "--endpoint",
        action="store_true",
        help="serve live telemetry over HTTP (/metrics /health /trace "
        "/events) while the demo runs",
    )
    p_serve.add_argument(
        "--endpoint-port",
        type=int,
        default=0,
        help="port for --endpoint (0 = pick a free port)",
    )

    p_shard = sub.add_parser(
        "shard", help="create/inspect sharded on-disk graph stores"
    )
    shard_sub = p_shard.add_subparsers(dest="shard_command", required=True)

    p_sc = shard_sub.add_parser(
        "create",
        help="build a store from an edge list (streamed) or a synthetic "
        "generator (shard-at-a-time; never holds the edge list)",
    )
    p_sc.add_argument("out", type=Path, help="store directory to create")
    sc_src = p_sc.add_mutually_exclusive_group(required=True)
    sc_src.add_argument(
        "--edges", type=Path, help="integer edge list file (two-pass stream)"
    )
    sc_src.add_argument(
        "--synthetic-sources",
        type=int,
        help="generate a synthetic source graph with this many sources",
    )
    p_sc.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="rows per shard (default: store's DEFAULT_BLOCK_SIZE)",
    )
    p_sc.add_argument(
        "--mean-degree",
        type=float,
        default=8.0,
        help="with --synthetic-sources: mean out-degree",
    )
    p_sc.add_argument(
        "--seed", type=int, default=2007, help="with --synthetic-sources"
    )

    p_si = shard_sub.add_parser(
        "info", help="print a store's manifest and compression stats"
    )
    p_si.add_argument("store", type=Path, help="store directory")
    p_si.add_argument(
        "--verify",
        action="store_true",
        help="decode every shard and check its digest",
    )

    p_led = sub.add_parser(
        "ledger",
        help="perf-trajectory ledger: fold benchmark results, gate regressions",
    )
    led_sub = p_led.add_subparsers(dest="ledger_command", required=True)

    def _ledger_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger",
            type=Path,
            default=None,
            help="LEDGER.json path (default: <results-dir>/LEDGER.json)",
        )
        p.add_argument(
            "--results-dir",
            type=Path,
            default=Path("benchmarks/results"),
            help="directory holding BENCH_*.json files",
        )

    p_ing = led_sub.add_parser("ingest", help="fold one benchmark file in")
    _ledger_common(p_ing)
    p_ing.add_argument("--bench", required=True, help="benchmark name")
    p_ing.add_argument("--file", type=Path, required=True, help="BENCH JSON file")
    p_ing.add_argument("--label", required=True, help="trend label (e.g. PR6)")

    p_back = led_sub.add_parser(
        "backfill", help="fold every committed BENCH_*.json in, labeled by origin PR"
    )
    _ledger_common(p_back)

    p_cmp = led_sub.add_parser(
        "compare",
        help="gate current BENCH_*.json files against the ledger "
        "(exit 1 on regression — the CI gate)",
    )
    _ledger_common(p_cmp)

    p_show = led_sub.add_parser("show", help="print the tracked-metric trend table")
    _ledger_common(p_show)
    p_show.add_argument("--bench", default=None, help="restrict to one bench")

    return parser


# ----------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------

def _read_blocklist(path: Path) -> list[str]:
    """The entries of a ``--blocklist`` file, one per line.

    Each line is stripped first, so blank lines and ``#`` comments are
    skipped however they are indented.
    """
    lines = (line.strip() for line in path.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _rank_store(args: argparse.Namespace) -> int:
    """The ``rank --graph-store`` path: out-of-core, explicit κ only."""
    from .config import GraphStoreParams, RankingParams
    from .core.pipeline import SpamResilientPipeline
    from .errors import ConfigError
    from .webgraph.store import ShardedGraphStore

    store = ShardedGraphStore.open(args.graph_store)
    print(
        f"store {args.graph_store}: {store.n_sources:,} sources / "
        f"{store.n_edges:,} edges in {store.n_blocks} blocks "
        f"(block size {store.block_size:,})"
    )
    kappa = None
    if args.blocklist:
        try:
            ids = np.asarray(
                [int(entry) for entry in _read_blocklist(args.blocklist)],
                dtype=np.int64,
            )
        except ValueError:
            raise ConfigError(
                "--graph-store stores are anonymous: --blocklist must hold "
                "integer source ids, one per line"
            ) from None
        if ids.size and (ids.min() < 0 or ids.max() >= store.n_sources):
            raise ConfigError(
                f"blocklist source ids must be in [0, {store.n_sources})"
            )
        kappa = np.zeros(store.n_sources)
        kappa[ids] = 1.0
        print(f"throttling {ids.size} blocklisted sources (kappa = 1)")
    params = GraphStoreParams(cache_blocks=args.store_cache)
    with SpamResilientPipeline(
        ranking=RankingParams(alpha=args.alpha, solver=args.solver)
    ) as pipe:
        result = pipe.rank_store(store, kappa=kappa, store_params=params)
    top_k = min(args.top, store.n_sources)
    order = result.top(top_k)
    print(
        f"\nconverged={result.convergence.converged} after "
        f"{result.convergence.iterations} iterations "
        f"(residual {result.convergence.residual:.2e})"
    )
    print(f"top {top_k} sources:")
    for rank, s in enumerate(order, start=1):
        marker = (
            "  [throttled]" if kappa is not None and kappa[int(s)] >= 1 else ""
        )
        print(
            f"  {rank:3d}. source-{int(s)}  "
            f"score={result.score_of(int(s)):.6f}{marker}"
        )
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    if args.graph_store:
        return _rank_store(args)
    from .config import (
        AuditParams,
        RankingParams,
        ResilienceParams,
        SpamProximityParams,
        ThrottleParams,
    )
    from .core.pipeline import SpamResilientPipeline
    from .datasets.registry import load_dataset
    from .graph.io import read_labeled_edges
    from .observability import Tracer, format_tree, write_metrics
    from .sources.assignment import SourceAssignment

    tracer = Tracer(events_path=args.events_out, profile=args.profile)

    if args.dataset:
        ds = load_dataset(args.dataset)
        graph, assignment = ds.graph, ds.assignment
        name_of = lambda s: f"source-{s}"  # noqa: E731 - synthetic sources are anonymous
        seeds: list[int] = ds.spam_sources[: max(1, ds.spam_sources.size // 10)].tolist()
        print(
            f"dataset {args.dataset}: {graph.n_nodes:,} pages, "
            f"{assignment.n_sources:,} sources "
            f"(seeding with {len(seeds)} known spam sources)"
        )
    else:
        graph, url_ids = read_labeled_edges(args.edges)
        urls = sorted(url_ids, key=url_ids.get)
        assignment = SourceAssignment.from_urls(urls, key=args.key)
        name_of = assignment.name_of
        seeds = []
        if args.blocklist:
            wanted = set(_read_blocklist(args.blocklist))
            seeds = [
                s
                for s in range(assignment.n_sources)
                if assignment.name_of(s) in wanted
            ]
            missing = wanted - {assignment.name_of(s) for s in seeds}
            if missing:
                print(f"warning: blocklist hosts not in crawl: {sorted(missing)}", file=sys.stderr)
        print(
            f"crawl {args.edges}: {graph.n_nodes:,} pages, "
            f"{assignment.n_sources:,} sources, {len(seeds)} blocklisted"
        )

    n = assignment.n_sources
    throttle = ThrottleParams(
        top_fraction=min(1.0, max(2 * max(len(seeds), 1), 4) / n)
    )
    resilience = None
    if args.fallback_solvers:
        resilience = ResilienceParams(
            fallback_solvers=tuple(
                name.strip()
                for name in args.fallback_solvers.split(",")
                if name.strip()
            )
        )
    audit = None
    if args.audit:
        audit = AuditParams(strict=not args.audit_lenient)
    with SpamResilientPipeline(
        ranking=RankingParams(
            alpha=args.alpha,
            solver=args.solver,
            resilience=resilience,
            audit=audit,
        ),
        throttle=throttle,
        proximity=SpamProximityParams(resilience=resilience, audit=audit),
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    ) as pipe, tracer.activate():
        result = pipe.rank(graph, assignment, spam_seeds=seeds or None)
    if args.trace:
        print("\ntrace:")
        print(format_tree(result.trace))
    if args.profile:
        print("\nprofile (wall / CPU per stage):")
        for record in result.trace.walk():
            attrs = record.meta
            calls = f", {attrs['calls']} calls" if "calls" in attrs else ""
            print(
                f"  {record.name}: {attrs['wall_seconds'] * 1e3:.1f} ms wall, "
                f"{attrs['cpu_seconds'] * 1e3:.1f} ms cpu{calls}"
            )
            for row in attrs.get("top", [])[:3]:
                print(
                    f"      {row['function']}  "
                    f"cum={row['cumtime_seconds'] * 1e3:.1f} ms "
                    f"x{row['calls']}"
                )
    if args.events_out:
        print(
            f"wrote {tracer.events_emitted} events (run_id {tracer.run_id}) "
            f"to {args.events_out}"
        )
    if args.metrics_out:
        path = write_metrics(
            args.metrics_out,
            tracer,
            root=result.trace,
            meta={"command": "rank", "dataset": args.dataset or str(args.edges)},
        )
        print(f"wrote metrics to {path}")
    top_k = min(args.top, n)
    print(f"\ntop {top_k} sources:")
    for rank, s in enumerate(result.top_sources(top_k), start=1):
        kappa = result.kappa[int(s)]
        marker = "  [throttled]" if kappa >= 1 else ""
        print(
            f"  {rank:3d}. {name_of(int(s))}  "
            f"score={result.scores.score_of(int(s)):.6f}{marker}"
        )
    throttled = result.kappa.fully_throttled()
    if throttled.size:
        print(f"\nthrottled sources ({throttled.size}):")
        for s in throttled[:20]:
            print(f"  - {name_of(int(s))}")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .config import ExperimentParams, ThrottleParams
    from .eval import run_fig2, run_fig3, run_fig4, run_fig5, run_fig6, run_fig7
    from .eval.experiments import run_table1
    from .observability import Tracer, format_tree, write_metrics

    tracer = Tracer()

    def finish() -> None:
        if args.trace and tracer.roots:
            print("\ntrace:")
            print(format_tree(tracer))
        if args.metrics_out:
            path = write_metrics(
                args.metrics_out,
                tracer,
                meta={"command": "figures", "fast": bool(args.fast)},
            )
            print(f"wrote metrics to {path}")

    if args.fast:
        dataset = "tiny"
        params = ExperimentParams(
            n_targets=2,
            cases=(1, 10, 100),
            throttle=ThrottleParams(top_fraction=16 / 128),
            seed_fraction=0.25,
            n_buckets=10,
        )
    else:
        dataset = "wb2001_like"
        params = ExperimentParams()

    if args.out is not None:
        from .eval import run_all

        with tracer.activate(), tracer.span("manifest"):
            if args.fast:
                manifest = run_all(
                    args.out, params=params, datasets=("tiny",), empirical=False
                )
            else:
                manifest = run_all(args.out, params=params)
        print(
            f"wrote {len(manifest.records)} artifacts to {manifest.out_dir} "
            f"in {manifest.total_seconds():.1f} s"
        )
        finish()
        return 0

    wanted = set(args.artifacts) or {
        "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    }

    def show(text: str) -> None:
        print(text)
        print("=" * 72)

    with tracer.activate():
        if "table1" in wanted and not args.fast:
            with tracer.span("table1"):
                show(run_table1().format())
        if "fig2" in wanted:
            with tracer.span("fig2"):
                show(run_fig2().format())
        if "fig3" in wanted:
            with tracer.span("fig3"):
                show(run_fig3().format())
        if "fig4" in wanted:
            for scenario in (1, 2, 3):
                with tracer.span(f"fig4:{scenario}"):
                    show(run_fig4(scenario).format())
        if "fig5" in wanted:
            with tracer.span("fig5"):
                show(run_fig5(dataset, params).format())
        if "fig6" in wanted:
            with tracer.span("fig6"):
                show(run_fig6(dataset if not args.fast else "tiny", params).format())
        if "fig7" in wanted:
            with tracer.span("fig7"):
                show(run_fig7(dataset if not args.fast else "tiny", params).format())
    finish()
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .datasets.registry import load_dataset
    from .datasets.validation import validate_dataset
    from .graph.io import write_edge_list

    ds = load_dataset(args.name, seed_override=args.seed)
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    write_edge_list(ds.graph, out / "edges.tsv")
    np.savetxt(out / "page_to_source.txt", ds.assignment.page_to_source, fmt="%d")
    np.savetxt(out / "spam_sources.txt", ds.spam_sources, fmt="%d")
    print(
        f"wrote {ds.graph.n_nodes:,} pages / {ds.graph.n_edges:,} edges / "
        f"{ds.n_sources:,} sources / {ds.spam_sources.size} spam sources to {out}"
    )
    report = validate_dataset(ds)
    print()
    print(report.format())
    return 0 if report.passed else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from .eval.reporting import format_table
    from .graph.components import component_summary
    from .graph.io import read_edge_list
    from .graph.stats import compute_stats

    graph = read_edge_list(args.edges)
    stats = compute_stats(graph)
    print(format_table([stats.as_dict()], title=f"stats for {args.edges}"))
    weak = component_summary(graph)
    print(
        f"\nweak components: {weak.n_components} "
        f"(giant covers {100 * weak.giant_fraction:.1f} %)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .config import ServingParams
    from .datasets.registry import load_dataset
    from .errors import AdmissionError
    from .graph import add_edges
    from .resilience.faults import FaultyOperator, crash_at_iteration
    from .serving import RankingService
    from .throttle.vector import ThrottleVector

    rng = np.random.default_rng(args.seed)
    ds = load_dataset(args.dataset)
    kappa = np.zeros(ds.assignment.n_sources)
    kappa[np.asarray(ds.spam_sources, dtype=np.int64)] = 1.0
    kappa = ThrottleVector(kappa)

    observability = None
    if args.events_out or args.endpoint:
        from .config import ObservabilityParams

        observability = ObservabilityParams(
            events_path=(
                None if args.events_out is None else str(args.events_out)
            ),
            endpoint=args.endpoint,
            endpoint_port=args.endpoint_port,
        )
    service = RankingService(
        args.snapshot_dir,
        serving=ServingParams(backoff_base_seconds=0.05, seed=args.seed),
        observability=observability,
    )
    if service.telemetry is not None:
        print(f"telemetry endpoint: {service.telemetry.url('/metrics')}")
    if not service.ready():
        print("empty store: bootstrapping baseline + SR snapshots")
        service.bootstrap(ds.graph, ds.assignment, kappa)
    else:
        print(f"recovered from snapshot store: {service.health()}")

    if args.replicas:
        code = _serve_fleet(args, service, ds, kappa, rng)
        _serve_report(args, service)
        return code

    graph = ds.graph
    for step in range(1, args.updates + 1):
        src = rng.integers(0, graph.n_nodes, size=4)
        dst = rng.integers(0, graph.n_nodes, size=4)
        graph = add_edges(graph, src.tolist(), dst.tolist())
        inject: dict = {}
        faulty = args.inject != "none" and step % 2 == 0
        if faulty and args.inject == "nan":
            inject["operator_wrap"] = lambda op: FaultyOperator(
                op, corrupt_at_call=2, seed=args.seed
            )
        elif faulty and args.inject == "crash":
            inject["callback"] = crash_at_iteration(1)
        try:
            seq = service.submit_update(graph, ds.assignment, kappa, **inject)
        except AdmissionError as exc:
            print(f"update {step}: REFUSED ({exc.reason})")
            continue
        service.run_pending()
        health = service.health()
        print(
            f"update {step} (seq {seq}{', faulty' if faulty else ''}): "
            f"state={health['state']} staleness={health['staleness_updates']} "
            f"snapshot=v{health['snapshot_version']}/{health['snapshot_kind']}"
        )
        for _ in range(args.queries):
            service.score(int(rng.integers(0, ds.assignment.n_sources)))

    response = service.top_k(args.top)
    print(
        f"\ntop {args.top} sources "
        f"(state={response.state}, snapshot v{response.snapshot_version}/"
        f"{response.snapshot_kind}, age {response.snapshot_age:.2f}s, "
        f"staleness {response.staleness}):"
    )
    for rank, s in enumerate(np.asarray(response.value), start=1):
        print(f"  {rank:3d}. source-{int(s)}")
    print(f"\nhealth: {service.health()}")
    _serve_report(args, service)
    service.stop()
    return 0


def _serve_report(args: argparse.Namespace, service) -> None:
    """``serve``'s ``--metrics-out`` file and ``--events-out`` summary."""
    from .observability import write_metrics

    if args.metrics_out:
        path = write_metrics(
            args.metrics_out, service.tracer, meta={"command": "serve"}
        )
        print(f"wrote metrics to {path}")
    if args.events_out:
        print(
            f"wrote {service.tracer.events_emitted} events "
            f"(run_id {service.run_id}) to {args.events_out}"
        )


def _parse_chaos_spec(spec: str) -> tuple[int, str, dict]:
    """``REPLICA:KIND[:k=v,...]`` → ``(replica_id, kind, rule_config)``."""
    from .errors import ConfigError

    parts = spec.split(":", 2)
    if len(parts) < 2:
        raise ConfigError(
            f"--chaos spec {spec!r} must look like "
            "'REPLICA:KIND[:key=value,...]'"
        )
    try:
        replica_id = int(parts[0])
    except ValueError:
        raise ConfigError(
            f"--chaos spec {spec!r}: replica id {parts[0]!r} is not an int"
        ) from None
    kind = parts[1]
    config: dict = {"kind": kind}
    if len(parts) == 3 and parts[2]:
        for pair in parts[2].split(","):
            key, sep, value = pair.partition("=")
            if not sep:
                raise ConfigError(
                    f"--chaos spec {spec!r}: {pair!r} is not 'key=value'"
                )
            config[key.strip()] = float(value)
    return replica_id, kind, config


def _slo_from_args(args: argparse.Namespace):
    """SLOParams with only the provided ``--slo-*`` flags overridden."""
    from .config import SLOParams

    overrides: dict = {}
    if args.slo_deadline is not None:
        overrides["deadline_seconds"] = args.slo_deadline
    if args.slo_hedge_threshold is not None:
        overrides["hedge_threshold_seconds"] = args.slo_hedge_threshold
    if args.slo_retry_budget is not None:
        overrides["retry_budget_per_second"] = args.slo_retry_budget
        overrides["retry_budget_burst"] = 2.0 * args.slo_retry_budget
    if args.slo_max_inflight is not None:
        overrides["max_inflight"] = args.slo_max_inflight
    if args.slo_eject_latency is not None:
        overrides["eject_latency_seconds"] = args.slo_eject_latency
    return SLOParams(**overrides)


def _serve_fleet(args: argparse.Namespace, service, ds, kappa, rng) -> int:
    """The ``serve --replicas N`` path: publisher + replicas + front door."""
    import time

    from .config import FleetParams
    from .errors import AdmissionError
    from .graph import add_edges
    from .serving import ServingFleet

    n = ds.assignment.n_sources
    params = FleetParams(replicas=args.replicas)
    chaos_specs = [_parse_chaos_spec(s) for s in (args.chaos or [])]
    with ServingFleet(service, params, slo=_slo_from_args(args)) as fleet:
        host, port = fleet.frontdoor.address
        print(f"fleet: {args.replicas} replicas behind {host}:{port}")
        for rid, address in sorted(fleet.replica_addresses().items()):
            print(f"  replica {rid}: {address[0]}:{address[1]}")
        for replica_id, kind, config in chaos_specs:
            name = f"cli-{kind}"
            fleet.set_replica_chaos(
                replica_id, rules={name: config}, activate=[name]
            )
            print(f"  chaos: armed {kind!r} on replica {replica_id}")
        with fleet.client() as client:
            graph = ds.graph
            for step in range(1, args.updates + 1):
                src = rng.integers(0, graph.n_nodes, size=4)
                dst = rng.integers(0, graph.n_nodes, size=4)
                graph = add_edges(graph, src.tolist(), dst.tolist())
                try:
                    seq = service.submit_update(graph, ds.assignment, kappa)
                except AdmissionError as exc:
                    print(f"update {step}: REFUSED ({exc.reason})")
                    continue
                # The fleet started the background updater; wait for the
                # publish, then watch the replicas adopt it.
                deadline = time.monotonic() + 120
                while (
                    service.health()["staleness_updates"] > 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.05)
                published = service.health()["snapshot_version"]
                versions: dict = {}
                while time.monotonic() < deadline:
                    versions = {
                        rid: entry.get("snapshot_version")
                        for rid, entry in client.health()["replicas"].items()
                    }
                    if all(v == published for v in versions.values()):
                        break
                    time.sleep(0.05)
                for _ in range(args.queries):
                    client.score([int(rng.integers(0, n))])
                print(
                    f"update {step} (seq {seq}): publisher at "
                    f"v{published}, replicas at "
                    f"{sorted(versions.items())}"
                )
            top = client.top_k(args.top)
            print(
                f"\ntop {args.top} sources via the front door "
                f"(replica {top.get('replica')}, snapshot "
                f"v{top.get('version')}/{top.get('kind')}, "
                f"age {top.get('age', 0.0):.2f}s):"
            )
            for rank, s in enumerate(top["ids"], start=1):
                print(f"  {rank:3d}. source-{int(s)}")
            stats = client.stats()["stats"]
            reads = stats["reads"]
            print(
                f"\nfront door: {reads['ok']:.0f} reads ok, "
                f"{reads['failed']:.0f} failed, "
                f"{reads['rejected']:.0f} rejected"
            )
            for rid, entry in sorted(stats["replicas"].items()):
                latency = entry["latency"]
                p99 = latency["p99_seconds"]
                print(
                    f"  replica {rid}: state={entry['state']} "
                    f"reads={entry['reads']} "
                    f"p99={'n/a' if p99 is None else f'{p99 * 1e3:.2f}ms'}"
                )
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from .webgraph.store import ShardedGraphStore

    if args.shard_command == "create":
        if args.synthetic_sources is not None:
            from .datasets.synthetic import (
                SyntheticSourceConfig,
                generate_source_store,
            )

            config = SyntheticSourceConfig(
                n_sources=args.synthetic_sources,
                mean_out_degree=args.mean_degree,
                seed=args.seed,
            )
            store = generate_source_store(
                config, args.out, block_size=args.block_size
            )
        else:
            from .graph.streaming import StreamingBuilder, stream_edge_chunks

            builder = StreamingBuilder()
            for src, dst in stream_edge_chunks(args.edges):
                builder.count(src, dst)
            builder.finish_counting()
            for src, dst in stream_edge_chunks(args.edges):
                builder.fill(src, dst)
            store = builder.build_store(
                args.out,
                block_size=args.block_size,
                meta={"origin": str(args.edges)},
            )
        info = store.describe()
        print(
            f"wrote {info['n_sources']:,} sources / {info['n_edges']:,} edges "
            f"as {info['n_blocks']} shards to {args.out} "
            f"({info['payload_bytes']:,} payload bytes, "
            f"{info['bits_per_edge']:.2f} bits/edge)"
        )
        return 0

    store = ShardedGraphStore.open(args.store)
    info = store.describe()
    print(f"store {args.store}:")
    for key in (
        "format_version",
        "n_sources",
        "n_edges",
        "n_blocks",
        "block_size",
        "weighted",
        "payload_bytes",
    ):
        value = info[key]
        formatted = (
            f"{value:,}"
            if isinstance(value, int) and not isinstance(value, bool)
            else str(value)
        )
        print(f"  {key}: {formatted}")
    print(f"  bits_per_edge: {info['bits_per_edge']:.2f}")
    if store.meta:
        print(f"  meta: {store.meta}")
    if args.verify:
        store.verify()
        print(f"  verify: all {store.n_blocks} shard digests OK")
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    from .observability import ledger as ledger_mod

    results_dir = args.results_dir
    ledger_path = args.ledger or (results_dir / "LEDGER.json")
    if args.ledger_command == "ingest":
        entry = ledger_mod.ingest_file(
            ledger_path, args.bench, args.file, label=args.label
        )
        print(
            f"ingested {args.file} as {entry.bench}/{entry.label} "
            f"({len(entry.metrics)} metrics) into {ledger_path}"
        )
        return 0
    if args.ledger_command == "backfill":
        ledger = ledger_mod.backfill(results_dir, ledger_path)
        print(
            f"backfilled {len(ledger.benches())} benches "
            f"({len(ledger.entries)} entries) into {ledger_path}"
        )
        return 0
    if args.ledger_command == "compare":
        findings = ledger_mod.compare_dir(results_dir, ledger_path)
        print(ledger_mod.format_findings(findings))
        failed = [f for f in findings if f.failed]
        if failed:
            print(
                f"\nREGRESSION: {len(failed)} tracked metric(s) regressed "
                f"beyond tolerance",
                file=sys.stderr,
            )
            return 1
        print(f"\nok: {len(findings)} tracked metric(s) within tolerance")
        return 0
    ledger = ledger_mod.Ledger.load(ledger_path)
    print(ledger_mod.format_trend(ledger, bench=args.bench))
    return 0


def ledger_main(
    argv: list[str] | None = None, *, default_results: Path | None = None
) -> int:
    """Entry point for ``benchmarks/ledger.py``: the ledger subcommand
    standalone, with the results directory defaulting to the caller's."""
    parser = build_parser()
    args = parser.parse_args(["ledger", *(sys.argv[1:] if argv is None else argv)])
    if default_results is not None and args.results_dir == Path(
        "benchmarks/results"
    ):
        args.results_dir = default_results
    return _cmd_ledger(args)


_COMMANDS = {
    "rank": _cmd_rank,
    "figures": _cmd_figures,
    "dataset": _cmd_dataset,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "shard": _cmd_shard,
    "ledger": _cmd_ledger,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rank" and args.resume and args.checkpoint_dir is None:
        parser.error(
            "rank: --resume requires --checkpoint-dir (there is nothing to "
            "resume from without a checkpoint directory; pass "
            "--checkpoint-dir DIR or drop --resume)"
        )
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
