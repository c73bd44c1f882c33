#!/usr/bin/env python
"""Chaos/soak harness for the serving layer: concurrent readers must
never see a failed or wrong read while the updater is being tortured.

Phases:

* **bootstrap** — tiny dataset, spam sources fully throttled, baseline +
  SR snapshots published to a fresh store.
* **chaos** — one update per fault class, each with its expected
  outcome asserted:

  - *nan*: a seeded NaN corrupts a matvec; the ``power → jacobi``
    fallback chain recovers *inside* the update — the service never
    leaves healthy.
  - *crash*: the solve dies mid-iteration; the update is dropped and the
    service degrades to serve-stale.

* **ladder** — crash updates walk the service down the full degradation
  ladder (healthy → stale → baseline → read_only) and one clean queued
  update snaps it back; at every rung the live telemetry endpoint is
  scraped and a read is answered.
* **soak** — a background updater streams clean evolving-graph updates
  while reader threads hammer score/top-k/percentile; every response's
  staleness is recorded.
* **torn_snapshot** — the newest snapshot file is truncated behind the
  store's back; a *new* service on the same store must recover to the
  previous healthy snapshot and keep answering.
* **recovery identity** — the final served σ must match a cold
  high-precision solve of the final applied graph to 1e-9.

The service runs with telemetry v2 on (correlated event log + live
scrape endpoint): scraper threads hammer ``/metrics`` and ``/health``
throughout chaos, ladder, and soak — ≥500 scrapes, across every
degradation state, with zero scrape failures — and at the end every
buffered event must carry the service's ``run_id``.

Writes ``benchmarks/results/BENCH_serving.json``.  Exits non-zero when
any gate fails: a single failed read or scrape, a degradation state the
endpoint never answered from, an uncorrelated event, staleness beyond
the configured bound, σ drift past 1e-9, or an expected metric stuck at
zero.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

RESULTS_PATH = Path(__file__).parent / "results" / "BENCH_serving.json"

RECOVERY_ATOL = 1e-9

MIN_SCRAPES = 500


def counter_value(name: str, **labels: str) -> float:
    from repro.observability.metrics import get_registry

    for family in get_registry().families():
        if family.name == name:
            for child in family.children():
                if child.label_values == labels:
                    return child.value
    return 0.0


class GraphEvolver:
    """Deterministic stream of growing page webs."""

    def __init__(self, graph, seed: int) -> None:
        from repro.graph import add_edges

        self._add_edges = add_edges
        self.graph = graph
        self._gen = np.random.default_rng(seed)

    def step(self):
        src = self._gen.integers(0, self.graph.n_nodes, size=4)
        dst = self._gen.integers(0, self.graph.n_nodes, size=4)
        self.graph = self._add_edges(self.graph, src.tolist(), dst.tolist())
        return self.graph


def build_service(store_dir: Path, seed: int, observe: bool = False):
    from repro.config import (
        ObservabilityParams,
        RankingParams,
        ResilienceParams,
        ServingParams,
    )
    from repro.serving import RankingService

    serving = ServingParams(
        max_pending=6,
        staleness_bound_updates=8,
        backoff_base_seconds=0.02,
        backoff_max_seconds=0.2,
        poll_interval_seconds=0.005,
        seed=seed,
    )
    params = RankingParams(
        tolerance=1e-12,
        max_iter=2000,
        resilience=ResilienceParams(fallback_solvers=("jacobi",)),
    )
    observability = (
        ObservabilityParams(endpoint=True) if observe else None
    )
    service = RankingService(
        store_dir, params, serving, observability=observability
    )
    return service, serving, params


def cold_sigma(graph, assignment, kappa, params):
    from repro.config import RankingParams
    from repro.ranking.srsourcerank import spam_resilient_sourcerank
    from repro.sources import SourceGraph

    cold_params = RankingParams(
        tolerance=params.tolerance, max_iter=params.max_iter
    )
    return spam_resilient_sourcerank(
        SourceGraph.from_page_graph(graph, assignment), kappa, cold_params
    ).scores


# ----------------------------------------------------------------------
# Telemetry scrapers
# ----------------------------------------------------------------------
class ScrapeHarness:
    """Threads hammering the live ``/metrics`` + ``/health`` endpoint.

    Every scrape is a real HTTP round-trip against the service's
    :class:`~repro.observability.TelemetryServer`; failures (non-200,
    empty body, unparsable health JSON) gate the bench.  ``/health``
    bodies feed ``states_seen`` so the bench can prove the endpoint
    answered from every degradation state.
    """

    def __init__(self, service, n_threads: int = 2) -> None:
        self.service = service
        self._n_threads = n_threads
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self.total = 0
        self.failures = 0
        self.by_endpoint = {"/metrics": 0, "/health": 0}
        self.states_seen: set[str] = set()
        self.failure_messages: list[str] = []

    def scrape_once(self, path: str) -> None:
        from urllib.request import urlopen

        try:
            with urlopen(self.service.telemetry.url(path), timeout=5.0) as resp:
                body = resp.read()
                if resp.status != 200 or not body:
                    raise RuntimeError(f"{path}: status={resp.status}")
                if path == "/health":
                    state = json.loads(body)["state"]
                else:
                    state = self.service.health()["state"]
                    if b"repro_serving" not in body:
                        raise RuntimeError("/metrics: no serving families")
            with self._lock:
                self.total += 1
                self.by_endpoint[path] += 1
                self.states_seen.add(state)
        except Exception as exc:  # noqa: BLE001 - every failure gates
            with self._lock:
                self.total += 1
                self.failures += 1
                if len(self.failure_messages) < 10:
                    self.failure_messages.append(f"{type(exc).__name__}: {exc}")

    def _loop(self, offset: int) -> None:
        paths = ("/metrics", "/health")
        i = offset
        while not self._stop.is_set():
            self.scrape_once(paths[i % 2])
            i += 1
            time.sleep(0.002)

    def start(self) -> "ScrapeHarness":
        self._threads = [
            threading.Thread(target=self._loop, args=(i,), name=f"scraper-{i}")
            for i in range(self._n_threads)
        ]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=30)

    def top_up(self, minimum: int) -> None:
        """Keep scraping (single-threaded) until ``minimum`` is reached."""
        while self.total < minimum:
            self.scrape_once("/metrics")
            self.scrape_once("/health")

    def report(self) -> dict:
        with self._lock:
            return {
                "total": self.total,
                "failed": self.failures,
                "by_endpoint": dict(self.by_endpoint),
                "states_seen": sorted(self.states_seen),
                "failure_messages": list(self.failure_messages),
            }


# ----------------------------------------------------------------------
# Degradation-ladder phase
# ----------------------------------------------------------------------
def run_ladder(service, evolver, assignment, kappa, scrape: ScrapeHarness) -> dict:
    """Walk healthy → stale → baseline → read_only → healthy.

    Crash updates are submitted one at a time (queued *before* the
    service turns read-only) so every rung of the ladder is held long
    enough to scrape the endpoint and answer a read from it.
    """
    from repro.errors import AdmissionError
    from repro.resilience.faults import crash_at_iteration
    from repro.serving.service import SERVING_STATES

    rungs = []

    def observe_rung(expected_state: str) -> None:
        state = service.health()["state"]
        scrape.scrape_once("/metrics")
        scrape.scrape_once("/health")
        read_ok = True
        try:
            response = service.score(0)
            read_state = response.state
        except Exception as exc:  # noqa: BLE001 - reads must never fail
            read_ok = False
            read_state = f"read failed: {type(exc).__name__}: {exc}"
        rungs.append(
            {
                "expected": expected_state,
                "state": state,
                "read_ok": read_ok,
                "read_state": read_state,
                "ok": state == expected_state and read_ok,
            }
        )

    observe_rung("healthy")

    # Four consecutive crash updates: stale after 1, baseline after 2,
    # read_only after 4 (ServingParams defaults: baseline_after=2,
    # read_only_after=4).  The recovery update is queued together with
    # the final crash — read_only refuses *new* submissions but still
    # runs what is already queued, and one success snaps back.
    def pump_one() -> None:
        """Run exactly one queued update, waiting out the breaker.

        ``run_pending`` returns without popping while the breaker's
        backoff holds, so "the queue shrank by one" is the signal that
        an attempt actually ran (applied or dropped).
        """
        target = service.pending() - 1
        deadline = time.perf_counter() + 30
        while service.pending() > target and time.perf_counter() < deadline:
            service.run_pending(max_updates=1)
            if service.pending() > target:
                time.sleep(0.01)

    expected_after_failure = ["stale", "baseline", "baseline", "read_only"]
    for i, expected in enumerate(expected_after_failure):
        graph = evolver.step()
        service.submit_update(
            graph, assignment, kappa, callback=crash_at_iteration(1)
        )
        if i == len(expected_after_failure) - 1:
            recovery_graph = evolver.step()
            service.submit_update(recovery_graph, assignment, kappa)
        pump_one()
        observe_rung(expected)

    # Writes are refused in read_only; reads and scrapes continue.
    try:
        service.submit_update(evolver.step(), assignment, kappa)
        refused = False
    except AdmissionError as exc:
        refused = exc.reason == "read_only"
    evolver.graph = recovery_graph  # the refused graph was never applied

    # The breaker is open after four straight failures; wait out its
    # backoff, then the queued clean update runs and snaps back.
    applied = 0
    deadline = time.perf_counter() + 30
    while applied == 0 and time.perf_counter() < deadline:
        applied = service.run_pending()
        if applied == 0:
            time.sleep(0.02)
    applied = applied == 1
    observe_rung("healthy")

    return {
        "rungs": rungs,
        "states_visited": sorted({r["state"] for r in rungs}),
        "read_only_refused_write": refused,
        "recovered": applied,
        "ok": bool(
            all(r["ok"] for r in rungs)
            and refused
            and applied
            and {r["state"] for r in rungs} == set(SERVING_STATES)
        ),
    }


# ----------------------------------------------------------------------
# Chaos phase
# ----------------------------------------------------------------------
def run_chaos(service, evolver, assignment, kappa, seed: int) -> dict:
    from repro.resilience.faults import FaultyOperator, crash_at_iteration

    applied = []
    report: dict = {}

    # Clean update first: a known-good reference point.
    graph = evolver.step()
    service.submit_update(graph, assignment, kappa)
    ok = service.run_pending() == 1
    applied.append(graph)
    report["clean"] = {"applied": ok, "state": service.health()["state"]}

    # NaN corruption: the fallback chain absorbs it inside the update.
    fallbacks_before = counter_value("repro_fallbacks_total", kind="solver")
    graph = evolver.step()
    service.submit_update(
        graph,
        assignment,
        kappa,
        operator_wrap=lambda op: FaultyOperator(op, corrupt_at_call=3, seed=seed),
    )
    ok = service.run_pending() == 1
    if ok:
        applied.append(graph)
    report["nan"] = {
        "applied": ok,
        "state": service.health()["state"],
        "stayed_healthy": service.health()["state"] == "healthy",
        "fallbacks_fired": counter_value("repro_fallbacks_total", kind="solver")
        - fallbacks_before,
    }

    # Mid-solve crash: the update is dropped, the service serves stale.
    graph = evolver.step()
    service.submit_update(
        graph, assignment, kappa, callback=crash_at_iteration(1)
    )
    dropped = service.run_pending() == 0
    stale_response = service.score(0)
    report["crash"] = {
        "dropped": dropped,
        "state": service.health()["state"],
        "went_stale": stale_response.state == "stale",
        "staleness_stamped": stale_response.staleness,
        "reads_during_degradation_ok": True,
    }

    # Clean recovery: back to healthy with zero staleness.
    graph = evolver.step()
    service.submit_update(graph, assignment, kappa)
    ok = service.run_pending() == 1
    applied.append(graph)
    report["recovery"] = {
        "applied": ok,
        "state": service.health()["state"],
        "staleness": service.score(0).staleness,
    }
    report["ok"] = bool(
        report["clean"]["applied"]
        and report["nan"]["applied"]
        and report["nan"]["stayed_healthy"]
        and report["nan"]["fallbacks_fired"] > 0
        and report["crash"]["dropped"]
        and report["crash"]["went_stale"]
        and report["recovery"]["applied"]
        and report["recovery"]["state"] == "healthy"
    )
    return report


# ----------------------------------------------------------------------
# Soak phase
# ----------------------------------------------------------------------
def run_soak(
    service,
    evolver,
    assignment,
    kappa,
    duration: float,
    n_readers: int,
    before_stop=None,
) -> tuple[dict, list]:
    from repro.errors import AdmissionError

    n = assignment.n_sources
    stop = threading.Event()
    stats_lock = threading.Lock()
    stats = {
        "reads_ok": 0,
        "reads_failed": 0,
        "max_staleness": 0,
        "max_snapshot_age": 0.0,
        "failures": [],
    }

    def reader(reader_seed: int) -> None:
        gen = np.random.default_rng(reader_seed)
        ops = ("score", "top_k", "percentile")
        local_ok = 0
        local_max_staleness = 0
        local_max_age = 0.0
        while not stop.is_set():
            op = ops[int(gen.integers(0, 3))]
            try:
                if op == "score":
                    response = service.score(int(gen.integers(0, n)))
                elif op == "top_k":
                    response = service.top_k(int(gen.integers(1, 10)))
                else:
                    response = service.percentile(int(gen.integers(0, n)))
                local_ok += 1
                local_max_staleness = max(local_max_staleness, response.staleness)
                local_max_age = max(local_max_age, response.snapshot_age)
            except Exception as exc:  # noqa: BLE001 - every failure gates
                with stats_lock:
                    stats["reads_failed"] += 1
                    if len(stats["failures"]) < 10:
                        stats["failures"].append(
                            f"{type(exc).__name__}: {exc}"
                        )
        with stats_lock:
            stats["reads_ok"] += local_ok
            stats["max_staleness"] = max(
                stats["max_staleness"], local_max_staleness
            )
            stats["max_snapshot_age"] = max(
                stats["max_snapshot_age"], local_max_age
            )

    readers = [
        threading.Thread(target=reader, args=(1000 + i,), name=f"reader-{i}")
        for i in range(n_readers)
    ]
    accepted = []
    submitted = 0
    rejected = 0
    t0 = time.perf_counter()
    for thread in readers:
        thread.start()
    try:
        with service:  # background updater drains the queue
            while time.perf_counter() - t0 < duration:
                graph = evolver.step()
                try:
                    service.submit_update(graph, assignment, kappa)
                    accepted.append(graph)
                    submitted += 1
                except AdmissionError:
                    rejected += 1  # backpressure is expected, not a failure
                    evolver.graph = accepted[-1]  # retry from the applied web
                time.sleep(0.01)
            # Drain before stopping so "final graph" == last accepted.
            deadline = time.perf_counter() + 60
            while (
                service.health()["staleness_updates"] > 0
                and time.perf_counter() < deadline
            ):
                time.sleep(0.01)
            if before_stop is not None:
                # Leaving the ``with`` block stops the service and its
                # telemetry endpoint; run last-chance scrapes first.
                before_stop()
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=30)
    elapsed = time.perf_counter() - t0
    health = service.health()
    report = {
        "seconds": elapsed,
        "updates_submitted": submitted,
        "updates_rejected_backpressure": rejected,
        "reads_ok": stats["reads_ok"],
        "reads_failed": stats["reads_failed"],
        "read_failures": stats["failures"],
        "max_staleness_observed": stats["max_staleness"],
        "max_snapshot_age_seconds": stats["max_snapshot_age"],
        "final_state": health["state"],
        "final_staleness": health["staleness_updates"],
        "drained": health["staleness_updates"] == 0,
    }
    return report, accepted


# ----------------------------------------------------------------------
# Torn-snapshot restart phase
# ----------------------------------------------------------------------
def run_torn_snapshot(store_dir: Path, seed: int) -> dict:
    from repro.serving import SnapshotStore

    store = SnapshotStore(store_dir)
    newest = store.latest(kind="sr")
    previous_healthy = None
    for version in reversed(store.versions()):
        snapshot = store.load(version)
        if (
            snapshot is not None
            and snapshot.kind == "sr"
            and snapshot.version < newest.version
        ):
            previous_healthy = snapshot
            break
    path = store.path_for(newest.version)
    path.write_bytes(path.read_bytes()[:64])  # tear it

    rejects_before = counter_value(
        "repro_snapshot_rejects_total", reason="unreadable"
    )
    service, _, _ = build_service(store_dir, seed)
    response = service.score(0)
    return {
        "torn_version": newest.version,
        "served_version": response.snapshot_version,
        "served_kind": response.snapshot_kind,
        "skipped_torn": response.snapshot_version < newest.version,
        "matches_previous_healthy": (
            previous_healthy is not None
            and response.snapshot_version == previous_healthy.version
        ),
        "rejects_fired": counter_value(
            "repro_snapshot_rejects_total", reason="unreadable"
        )
        - rejects_before,
        "ok": bool(
            response.snapshot_version < newest.version
            and previous_healthy is not None
            and response.snapshot_version == previous_healthy.version
        ),
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run(quick: bool, seed: int, duration: float, store_dir: Path) -> dict:
    from repro.datasets import load_dataset
    from repro.observability.metrics import reset_registry
    from repro.throttle.vector import ThrottleVector

    reset_registry()
    ds = load_dataset("tiny")
    kappa = np.zeros(ds.assignment.n_sources)
    kappa[np.asarray(ds.spam_sources, dtype=np.int64)] = 1.0
    kappa = ThrottleVector(kappa)

    service, serving, params = build_service(store_dir, seed, observe=True)
    t0 = time.perf_counter()
    service.bootstrap(ds.graph, ds.assignment, kappa)
    bootstrap_seconds = time.perf_counter() - t0

    evolver = GraphEvolver(ds.graph, seed)
    scrape = ScrapeHarness(service).start()
    try:
        chaos = run_chaos(service, evolver, ds.assignment, kappa, seed)
        ladder = run_ladder(service, evolver, ds.assignment, kappa, scrape)
        n_readers = 2 if quick else 4

        def finish_scraping() -> None:
            scrape.stop()
            scrape.top_up(MIN_SCRAPES)

        soak, accepted = run_soak(
            service,
            evolver,
            ds.assignment,
            kappa,
            duration,
            n_readers,
            before_stop=finish_scraping,
        )
    finally:
        scrape.stop()

    # Recovery identity: the served σ is byte-for-byte the published
    # snapshot; it must match a cold high-precision solve of the final
    # applied graph to RECOVERY_ATOL.
    final_graph = accepted[-1]
    served = service.store.latest(kind="sr").sigma
    cold = cold_sigma(final_graph, ds.assignment, kappa, params)
    sigma_diff = float(np.abs(served - cold).max())

    # Every buffered event must carry the service's run id — one id
    # stitches bootstrap → chaos → ladder → soak → snapshot publishes.
    buffered = service.tracer.events()
    run_id = service.run_id
    events_correlated = bool(buffered) and all(
        event["run_id"] == run_id for event in buffered
    )
    event_kinds = sorted({event["kind"] for event in buffered})
    telemetry = {
        "run_id": run_id,
        "events_emitted": service.tracer.events_emitted,
        "events_buffered": len(buffered),
        "events_correlated": events_correlated,
        "event_kinds": event_kinds,
        "scrapes": scrape.report(),
        "min_scrapes": MIN_SCRAPES,
    }

    service.stop()
    torn = run_torn_snapshot(store_dir, seed)

    transitions_down = counter_value(
        "repro_serving_transitions_total",
        from_state="healthy",
        to_state="stale",
    )
    transitions_up = counter_value(
        "repro_serving_transitions_total",
        from_state="stale",
        to_state="healthy",
    )
    updates_failed = counter_value(
        "repro_serving_updates_total", status="failed"
    )

    scrapes = telemetry["scrapes"]
    gates = {
        "chaos_ok": chaos["ok"],
        "ladder_ok": ladder["ok"],
        "zero_failed_reads": soak["reads_failed"] == 0,
        "scrapes_ok": bool(
            scrapes["total"] >= MIN_SCRAPES and scrapes["failed"] == 0
        ),
        "scraped_all_states": set(scrapes["states_seen"])
        >= {"healthy", "stale", "baseline", "read_only"},
        "events_correlated": events_correlated,
        "staleness_bounded": (
            soak["max_staleness_observed"] <= serving.staleness_bound_updates
        ),
        "soak_drained_healthy": bool(
            soak["drained"] and soak["final_state"] == "healthy"
        ),
        "sigma_identity": sigma_diff <= RECOVERY_ATOL,
        "torn_snapshot_recovered": torn["ok"],
        "metrics_nonzero": bool(
            transitions_down > 0
            and transitions_up > 0
            and updates_failed > 0
            and chaos["nan"]["fallbacks_fired"] > 0
            and torn["rejects_fired"] > 0
        ),
    }
    return {
        "quick": quick,
        "seed": seed,
        "duration_seconds": duration,
        "recovery_atol": RECOVERY_ATOL,
        "staleness_bound_updates": serving.staleness_bound_updates,
        "n_sources": int(ds.assignment.n_sources),
        "bootstrap_seconds": bootstrap_seconds,
        "phases": {
            "chaos": chaos,
            "ladder": ladder,
            "soak": soak,
            "torn_snapshot": torn,
        },
        "telemetry": telemetry,
        "sigma_max_diff": sigma_diff,
        "transitions": {
            "healthy_to_stale": transitions_down,
            "stale_to_healthy": transitions_up,
            "updates_failed": updates_failed,
        },
        "gates": gates,
        "all_passed": all(gates.values()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="short soak (CI mode; every gate still applies)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="soak length in seconds (default 20, or 3 with --quick)",
    )
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument(
        "--out", type=Path, default=RESULTS_PATH, help="output JSON path"
    )
    args = parser.parse_args(argv)
    duration = args.duration
    if duration is None:
        duration = 3.0 if args.quick else 20.0

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        report = run(args.quick, args.seed, duration, Path(tmp) / "snapshots")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    soak = report["phases"]["soak"]
    telemetry = report["telemetry"]
    print(
        f"serving soak ({soak['seconds']:.1f}s, "
        f"{soak['reads_ok']:,} reads, "
        f"{soak['updates_submitted']} updates):"
    )
    print(
        f"  telemetry: {telemetry['scrapes']['total']} scrapes "
        f"({telemetry['scrapes']['failed']} failed) across states "
        f"{telemetry['scrapes']['states_seen']}; "
        f"{telemetry['events_emitted']} events on {telemetry['run_id']}"
    )
    for gate, passed in report["gates"].items():
        print(f"  {gate}: {'ok' if passed else 'FAILED'}")
    print(
        f"  max staleness {soak['max_staleness_observed']} "
        f"(bound {report['staleness_bound_updates']}), "
        f"sigma max diff {report['sigma_max_diff']:.2e}"
    )
    print(f"  wrote {args.out}")
    if not report["all_passed"]:
        failed = [g for g, ok in report["gates"].items() if not ok]
        print(f"FAIL: gates failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
