"""The two batch workloads: ``rank-web`` and ``rank-store``.

1. **Set-up**, in a spawned child so its allocations never reach this
   process's peak RSS: generate the inputs ``SETUP_REPEATS`` times, each
   into a fresh directory, and time each.  This process loads the last.
2. **Cycles** for ``--seconds`` (at least ``MIN_CYCLES``).  Each cycle
   ranks with a fresh ``SpamResilientPipeline`` (a reused one caches the
   source graph and would skip the quotient), publishes the σ to a
   ``SnapshotStore`` and times its adoption by an in-process
   ``ReplicaService`` (no sockets), then reads it with the serve
   workload's mix.  Interleaving spreads every metric's samples over the
   whole run, so a slow stretch of the host weighs on all of them alike.

Every σ and every read is checked, outside the timed sections.  With
tracing on, cycles alternate between traced and untraced, so one run
reports both the per-layer split and the tracing overhead.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import common
from .common import TOP_K, read_schedule
from .checks import SIGMA_ATOL, ResponseChecker, expected_for, sigma_error
from .metrics import END_TO_END, PER_LAYER, RANK_LAYERS, table
from .spans import Recorder, program_probes, self_times, subtrees

#: rank-web: sources before spam is planted (≈40 pages and ≈300 links each).
WEB_SOURCES = 12_000
#: Share of sources planted as spam, and share of those given as seeds.
SPAM_FRACTION = 0.014
SEED_FRACTION = 0.25
#: rank-store: sources and rows per block; 5 blocks against the default
#: 4-block cache, so every sweep re-decodes every block.
STORE_SOURCES = 20_000
STORE_BLOCK_ROWS = 4_096
#: rank-store: share of sources fully throttled by the fixed κ.
STORE_THROTTLED = 0.028

SETUP_REPEATS = 3
#: Each cycle ranks, publishes the σ ``PUBLISHES_PER_CYCLE`` times, and
#: reads it for ``READ_RATIO`` times as long as the rank took, in windows
#: of ``READ_WINDOW_S`` seconds.
MIN_CYCLES = 4
PUBLISHES_PER_CYCLE = 4
READ_RATIO = 0.4
READ_BATCH = 64
READ_WINDOW_S = 0.1
ADOPT_POLLS = 10


# ----------------------------------------------------------------------
# Set-up (runs in a spawned child)
# ----------------------------------------------------------------------
def _make_web(seed: int, directory: Path) -> dict:
    from repro.datasets.spam_labels import (
        SpamPlantConfig,
        plant_spam_communities,
        sample_seed_set,
    )
    from repro.datasets.synthetic import SyntheticWebConfig, generate_web

    web_seed, spam_seed, pick_seed = common.derive_seeds(seed, 3)
    graph, assignment = generate_web(
        SyntheticWebConfig(n_sources=WEB_SOURCES, seed=web_seed)
    )
    n_spam = round(SPAM_FRACTION * WEB_SOURCES)
    graph, assignment, spam = plant_spam_communities(
        graph, assignment, SpamPlantConfig(n_spam_sources=n_spam, seed=spam_seed)
    )
    seeds = sample_seed_set(spam, SEED_FRACTION, np.random.default_rng(pick_seed))
    np.save(directory / "indptr.npy", graph.indptr)
    np.save(directory / "indices.npy", graph.indices)
    np.save(directory / "page_to_source.npy", assignment.page_to_source)
    np.save(directory / "seeds.npy", seeds)
    return {
        "pages": int(graph.n_nodes),
        "page_links": int(graph.n_edges),
        "sources": int(assignment.n_sources),
        "spam_sources": int(n_spam),
        "seeds": int(seeds.size),
    }


def _make_store(seed: int, directory: Path) -> dict:
    from repro.datasets.synthetic import SyntheticSourceConfig, generate_source_store

    store_seed, kappa_seed = common.derive_seeds(seed, 2)
    store = generate_source_store(
        SyntheticSourceConfig(n_sources=STORE_SOURCES, seed=store_seed),
        directory / "store",
        block_size=STORE_BLOCK_ROWS,
    )
    rng = np.random.default_rng(kappa_seed)
    kappa = np.zeros(STORE_SOURCES)
    kappa[rng.choice(STORE_SOURCES, round(STORE_THROTTLED * STORE_SOURCES), replace=False)] = 1.0
    np.save(directory / "kappa.npy", kappa)
    return {
        "sources": int(store.n_sources),
        "source_edges": int(store.n_edges),
        "blocks": int(store.n_blocks),
        "block_rows": STORE_BLOCK_ROWS,
        "payload_bytes": int(store.payload_bytes),
    }


_MAKERS = {"rank-web": _make_web, "rank-store": _make_store}


def _setup_child(workload: str, seed: int, conn) -> None:
    """Generate the inputs ``SETUP_REPEATS`` times; report times and the last dir."""
    try:
        # Import before timing: the first repeat must not pay for imports.
        import repro.datasets.spam_labels  # noqa: F401
        import repro.datasets.synthetic  # noqa: F401
        import repro.webgraph.store  # noqa: F401

        times, directory, shape = [], None, {}
        for _ in range(SETUP_REPEATS):
            if directory is not None:
                common.remove_dir(directory)
            directory = common.fresh_dir(f"{workload}-")
            start = time.perf_counter()
            shape = _MAKERS[workload](seed, directory)
            times.append(time.perf_counter() - start)
        conn.send(("ok", times, str(directory), shape))
    except Exception as exc:  # noqa: BLE001 - reported to the parent
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        conn.close()


def _set_up(workload: str, seed: int) -> tuple[list[float], Path, dict]:
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_setup_child, args=(workload, seed, child))
    process.start()
    child.close()
    try:
        message = parent.recv()
    finally:
        process.join(60)
        if process.is_alive():
            process.kill()
            process.join()
    if message[0] != "ok":
        raise RuntimeError(f"set-up failed: {message[1]}")
    _, times, directory, shape = message
    return times, Path(directory), shape


# ----------------------------------------------------------------------
# The rank calls
# ----------------------------------------------------------------------
class _WebInputs:
    def __init__(self, directory: Path) -> None:
        from repro.graph.pagegraph import PageGraph
        from repro.sources.assignment import SourceAssignment

        indptr = np.load(directory / "indptr.npy")
        self.graph = PageGraph(indptr, np.load(directory / "indices.npy"), indptr.size - 1)
        self.assignment = SourceAssignment(np.load(directory / "page_to_source.npy"))
        self.seeds = np.load(directory / "seeds.npy")

    def rank(self) -> tuple[np.ndarray, np.ndarray]:
        from repro.core.pipeline import SpamResilientPipeline

        with SpamResilientPipeline() as pipeline:
            result = pipeline.rank(self.graph, self.assignment, spam_seeds=self.seeds)
        return np.array(result.scores.scores), np.array(result.kappa.kappa)

    def reference(self) -> tuple[list[tuple[np.ndarray, float]], np.ndarray]:
        """References for σ, each with the max-abs error allowed against it.

        The power solve of the materialized ``T''`` runs the pipeline's
        algorithm and stopping rule on the explicit matrix, so the lazy
        path must match it to ``SIGMA_ATOL``.  Jacobi at tolerance 1e-12
        is an independent solver; against it σ may differ by the error
        bound of a solve stopped at the pipeline's tolerance,
        ``tolerance / (1 - alpha)``.
        """
        from repro.config import RankingParams
        from repro.linalg.operator import CsrOperator, ThrottledOperator
        from repro.linalg.registry import solver_registry
        from repro.ranking.jacobi import jacobi_solve
        from repro.sources.sourcegraph import SourceGraph
        from repro.throttle.spam_proximity import spam_proximity
        from repro.throttle.strategies import assign_kappa

        params = RankingParams()
        source_graph = SourceGraph.from_page_graph(self.graph, self.assignment)
        self.source_edges = int(source_graph.matrix.nnz)
        kappa = assign_kappa(spam_proximity(source_graph, self.seeds).scores)
        throttled = ThrottledOperator(
            CsrOperator(source_graph.matrix), kappa, full_throttle="dangling"
        ).materialize()
        power = solver_registry.solve(throttled, params, solver="power").scores
        jacobi = jacobi_solve(throttled, params.with_(tolerance=1e-12)).scores
        bound = params.tolerance / (1.0 - params.alpha)
        return [(np.array(power), SIGMA_ATOL), (np.array(jacobi), bound)], np.array(kappa.kappa)


class _StoreInputs:
    def __init__(self, directory: Path) -> None:
        self.path = str(directory / "store")
        self.kappa = np.load(directory / "kappa.npy")

    def rank(self) -> tuple[np.ndarray, np.ndarray]:
        from repro.core.pipeline import SpamResilientPipeline

        with SpamResilientPipeline() as pipeline:
            result = pipeline.rank_store(self.path, kappa=self.kappa)
        return np.array(result.scores), self.kappa

    def reference(self) -> tuple[list[tuple[np.ndarray, float]], np.ndarray]:
        """σ of the same solve on the materialized store, held in memory."""
        from repro.ranking.srsourcerank import spam_resilient_sourcerank
        from repro.sources.sourcegraph import SourceGraph
        from repro.webgraph.store import ShardedGraphStore

        matrix = ShardedGraphStore.open(self.path).materialize()
        self.source_edges = int(matrix.nnz)
        sigma = spam_resilient_sourcerank(
            SourceGraph(matrix), self.kappa, full_throttle="dangling"
        ).scores
        return [(np.array(sigma), SIGMA_ATOL)], self.kappa


# ----------------------------------------------------------------------
# Per-layer split of one traced rank
# ----------------------------------------------------------------------
def rank_breakdown(group, n_blocks: int) -> dict[str, float]:
    """Per-layer metrics of one rank call's span subtree (root first)."""
    selfs = self_times(group)
    by_id = {span.sid: span for span in group}
    out: defaultdict[str, float] = defaultdict(float)
    for layer in RANK_LAYERS:
        out[f"layer_self_s.{layer}"] = 0.0
    out["core.self_s"] = selfs[group[0].sid]
    blocked_calls = sweep_loads = 0
    for span in group:
        meta = span.meta or {}
        parent = by_id.get(span.parent)
        out[f"layer_self_s.{span.layer}"] += selfs[span.sid]
        name = span.name
        if name == "sources.from_page_graph":
            out["sources.from_page_graph_s"] += span.duration
            out["sources.source_edges"] = meta["source_edges"]
        elif name == "sources.quotient":
            out["sources.quotient_s"] += span.duration
            out["sources.page_edges"] = meta["page_edges"]
        elif name == "throttle.proximity":
            out["throttle.proximity_s"] += span.duration
            out["throttle.proximity_iterations"] = meta["iterations"]
        elif name == "throttle.assign_kappa":
            out["throttle.assign_kappa_s"] += span.duration
        elif span.layer == "ranking" and (parent is None or parent.layer != "ranking"):
            out["ranking.solve_s"] += span.duration
            out["ranking.iterations"] += meta["iterations"]
        elif name.startswith("linalg.rmatvec."):
            tag = name.rsplit(".", 1)[1]
            out[f"linalg.rmatvec_calls.{tag}"] += 1
            out[f"linalg.rmatvec_self_s.{tag}"] += selfs[span.sid]
            blocked_calls += tag == "blocked"
        elif name == "linalg.open":
            out["linalg.open_s"] += span.duration
        elif name == "webgraph.load_block":
            out["webgraph.load_block_calls"] += 1
            out["webgraph.load_block_s"] += span.duration
            out["webgraph.decoded_mb"] += meta["payload_bytes"] / 1e6
            sweep_loads += parent is not None and parent.name == "linalg.rmatvec.blocked"
    out["ranking.iterate_self_s"] = out["layer_self_s.ranking"]
    if blocked_calls:
        out["linalg.block_cache_hit_ratio"] = 1.0 - sweep_loads / (blocked_calls * n_blocks)
    return dict(out)


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*rows) if rows else set()
    return {key: common.median(row.get(key, 0.0) for row in rows) for key in keys}


# ----------------------------------------------------------------------
# Hand-off: publish σ, adopt it, read it — in-process
# ----------------------------------------------------------------------
def _in_process(request: dict) -> dict:
    """The replica wire form of a request (single ids travel as a list)."""
    if "id" in request:
        return {"op": request["op"], "ids": [request["id"]]}
    return request


class _HandOff:
    """The serving half of each cycle: an in-process replica over its own store."""

    def __init__(self, directory: Path, rng: np.random.Generator) -> None:
        from repro.serving.fleet import ReplicaService
        from repro.serving.snapshot import SnapshotStore

        self.store = SnapshotStore(directory)
        self.replica = ReplicaService(self.store)
        self.rng = rng
        self.expected: dict = {}
        self.checker = ResponseChecker(self.expected.get)
        #: Operations sent and failed per phase ("adoption", "read").
        self.sent: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        #: Adoption lags ``(traced, cycle, seconds)`` and reads
        #: ``(traced, window, op, seconds)``.
        self.lags: list[tuple[bool, int, float]] = []
        self.first_percentile_ms: list[tuple[bool, float]] = []
        self.reads: list[tuple[bool, int, str, float]] = []
        self.window = 0
        self.read_spans: list[range] = []

    def _check(self, request: dict, response: dict, version: int) -> None:
        self.sent["read"] += 1
        self.failed["read"] += self.checker.check(request, response, min_version=version) is not None

    def publish(self, sigma: np.ndarray, kappa: np.ndarray, expected, cycle: int, traced: bool) -> int:
        """Publish σ, then poll until the replica adopts it; record the lag."""
        snapshot = self.store.publish(kind="sr", sigma=sigma, kappa=kappa)
        start = time.perf_counter()
        for _ in range(ADOPT_POLLS):
            if self.replica.follower.poll_once():
                break
        lag = time.perf_counter() - start
        self.expected[snapshot.version] = expected
        self.sent["adoption"] += 1
        current = self.replica.follower.current
        if current is None or current.version != snapshot.version:
            self.failed["adoption"] += 1
        else:
            self.lags.append((traced, cycle, lag))
        return snapshot.version

    def first_percentile(self, version: int, traced: bool) -> None:
        """The first percentile read after an adoption (it builds the table)."""
        request = {"op": "percentile", "ids": self.rng.integers(self.replica.follower.current.n, size=100).tolist()}
        start = time.perf_counter()
        response = self.replica.handle(request)
        self.first_percentile_ms.append((traced, (time.perf_counter() - start) * 1e3))
        self._check(request, response, version)

    def read_burst(self, windows: int, version: int, traced: bool, recorder) -> None:
        """Closed-loop reads of the mix for ``windows`` windows, each one checked."""
        n = self.replica.follower.current.n
        first_span = len(recorder.spans) if recorder is not None else 0
        for _ in range(windows):
            self.window += 1
            deadline = time.perf_counter() + READ_WINDOW_S
            while time.perf_counter() < deadline:
                for request in read_schedule(self.rng, n, READ_BATCH):
                    message = _in_process(request)
                    start = time.perf_counter()
                    response = self.replica.handle(message)
                    elapsed = time.perf_counter() - start
                    self.reads.append((traced, self.window, request["op"], elapsed))
                    self._check(request, response, version)
        if recorder is not None:
            self.read_spans.append(range(first_span, len(recorder.spans)))


def read_metrics(reads: list[tuple[bool, int, str, float]]) -> dict[str, float]:
    """read_p50/p99/topk_p50 in ms and read_rps from ``(traced, window, op, seconds)``.

    Each latency quantile is taken per window of reads and averaged over the
    windows.  The host alternates between a fast and a slow state, in shares
    that differ from run to run; the average moves only as far as the shares
    do, while the pooled quantile, or either end of the windows, jumps from
    one state to the other when the shares sit near its level.  In-process
    reads have no
    wire and no queue, so ``read_rps`` is reads per second of ``handle``
    time over the run: what one caller sees back to back.  It is pooled
    because a window holds only ~50 of the ``top_k`` reads that take two
    thirds of the time, so its rate moves by about a tenth with how many of
    them it happened to draw.
    """
    seconds = [(window, elapsed) for _, window, _, elapsed in reads]
    topk = [(window, elapsed) for _, window, op, elapsed in reads if op == "top_k"]
    busy = sum(elapsed for _, elapsed in seconds)
    return {
        "read_p50_ms": common.mean(common.per_window(seconds, common.median)) * 1e3,
        "read_p99_ms": common.mean(common.per_window(seconds, lambda v: common.quantile(v, 0.99))) * 1e3,
        "topk_p50_ms": common.mean(common.per_window(topk, common.median)) * 1e3,
        "read_rps": len(seconds) / busy if busy else 0.0,
    }


def _split(rows, traced: bool) -> list:
    return [row for row in rows if row[0] == traced]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> None:
    setup_times, directory, shape = _set_up(workload, seed)
    snapshots = common.fresh_dir("snapshots-")
    try:
        start = time.perf_counter()
        inputs = _WebInputs(directory) if workload == "rank-web" else _StoreInputs(directory)
        load_s = time.perf_counter() - start
        recorder = Recorder() if trace else None
        probes = program_probes(recorder) if trace else None
        handoff = _HandOff(snapshots, np.random.default_rng(common.derive_seeds(seed, 4)[3]))

        inputs.rank()  # warm-up: imports and lazy set-up finish before timing
        # One cycle: rank, publish the σ and adopt it, then read it.  With
        # tracing on, cycles alternate between traced and untraced.
        cycles: list[tuple[bool, float, int | None, np.ndarray | None]] = []
        kappa = None
        deadline = time.perf_counter() + seconds
        while len(cycles) < MIN_CYCLES or time.perf_counter() < deadline:
            traced = trace and len(cycles) % 2 == 0
            root = len(recorder.spans) if traced else None
            with probes.installed() if traced else nullcontext():
                try:
                    begin = time.perf_counter()
                    sigma, kappa = inputs.rank()
                    elapsed = time.perf_counter() - begin
                except Exception as exc:  # noqa: BLE001 - a failed rank is counted
                    print(f"rank failed: {type(exc).__name__}: {exc}", flush=True)
                    cycles.append((traced, float("nan"), None, None))
                    continue
                expected = expected_for(sigma, TOP_K)
                cycle = len(cycles)
                for _ in range(PUBLISHES_PER_CYCLE):
                    version = handoff.publish(sigma, kappa, expected, cycle, traced)
                handoff.first_percentile(version, traced)
                windows = max(round(READ_RATIO * elapsed / READ_WINDOW_S), 1)
                handoff.read_burst(windows, version, traced, recorder)
            cycles.append((traced, elapsed, root, sigma))
        peak_rss = common.vm_hwm_mb()
        if kappa is None:
            raise RuntimeError("every rank failed")

        # Checks, outside every timed section.
        references, reference_kappa = inputs.reference()
        shape["source_edges"] = inputs.source_edges
        errors = [
            [sigma_error(s, ref) if s is not None else float("inf") for ref, _ in references]
            for *_, s in cycles
        ]
        rank_failed = sum(any(e > bound for e, (_, bound) in zip(row, references)) for row in errors)
        rank_failed += not np.array_equal(kappa, reference_kappa)
        failed = rank_failed + sum(handoff.failed.values())
        attempted = len(cycles) + sum(handoff.sent.values())
        phases = {
            "rank": {"sent": len(cycles), "failed": int(rank_failed)},
            **{
                phase: {"sent": handoff.sent[phase], "failed": handoff.failed[phase]}
                for phase in handoff.sent
            },
        }

        def end_to_end(traced: bool) -> dict[str, float]:
            return {
                "rank_s": common.median(
                    elapsed for _, elapsed, _, sigma in _split(cycles, traced) if sigma is not None
                ),
                # Mean over cycles of each cycle's median lag.
                "adopt_lag_s": common.mean(
                    common.per_window(((c, lag) for _, c, lag in _split(handoff.lags, traced)), common.median)
                ),
                **read_metrics(_split(handoff.reads, traced)),
            }

        values = {
            "setup_s": common.median(setup_times) + load_s,
            "peak_rss_mb": peak_rss,
            **end_to_end(False),
        }
        provenance = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "shape": {
                **shape,
                "snapshot_n": int(references[0][0].size),
                "publishes": len(handoff.lags),
            },
            "phases": phases,
            "rank_seconds": [elapsed for _, elapsed, *_ in cycles],
            "read_p50_windows_ms": [
                p50 * 1e3
                for p50 in common.per_window(
                    ((window, elapsed) for _, window, _, elapsed in _split(handoff.reads, False)), common.median
                )
            ],
            "max_sigma_error": [max(col) for col in zip(*errors)],
            "setup_times_s": setup_times,
            "load_s": load_s,
            "attempted": attempted,
            "failed": failed,
            "host": common.host_fingerprint(),
        }
        if not trace:
            common.emit(
                correct=failed == 0,
                attempted=attempted,
                failed=failed,
                metrics=table(values, END_TO_END),
                provenance=provenance,
            )
            return

        spans = recorder.spans
        roots = [root for _, _, root, sigma in cycles if root is not None and sigma is not None]
        groups = subtrees(spans, roots)
        layers = _medians([rank_breakdown(groups[root], shape.get("blocks", 0)) for root in roots])
        layer_sum = sum(layers[f"layer_self_s.{layer}"] for layer in RANK_LAYERS)
        traced_values = end_to_end(True)
        handle_ms: dict[str, list[float]] = {}
        for window in handoff.read_spans:
            for span in spans[window.start : window.stop]:
                if span.name == "fleet.handle":
                    handle_ms.setdefault(span.meta["op"], []).append(span.duration * 1e3)
        layers.update(
            {
                "trace.layer_sum_ratio": layer_sum / values["rank_s"],
                "snapshot.publish_s": common.median(s.duration for s in spans if s.name == "snapshot.publish"),
                "snapshot.latest_s": common.median(s.duration for s in spans if s.name == "snapshot.latest"),
                "fleet.first_percentile_ms": common.median(ms for _, ms in _split(handoff.first_percentile_ms, True)),
                **{f"fleet.handle_ms.{op}": common.median(v) for op, v in handle_ms.items()},
                **{f"overhead.{k}": traced_values[k] - values[k] for k in traced_values},
                "overhead.peak_rss_mb": recorder.nbytes() / 2**20,
            }
        )
        provenance["end_to_end_untraced"] = values
        common.emit(
            correct=failed == 0,
            attempted=attempted,
            failed=failed,
            metrics=table(layers, PER_LAYER),
            provenance=provenance,
            spans=spans,
            tag=f"{workload}-{seed}",
        )
    finally:
        common.remove_dir(snapshots)
        common.remove_dir(directory)
