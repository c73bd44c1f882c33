"""Serving telemetry v2: the live endpoint under chaos, correlated events,
SLO read-latency instrumentation, and trace isolation."""

from __future__ import annotations

import gc
import json
import threading
import time
import warnings
from urllib.request import urlopen

import pytest

from repro.config import ObservabilityParams, RankingParams, ServingParams
from repro.errors import AdmissionError
from repro.observability import read_events
from repro.resilience.faults import crash_at_iteration
from repro.serving import RankingService
from repro.serving.service import SERVING_STATES

SERVING = ServingParams(
    backoff_base_seconds=0.005,
    backoff_max_seconds=0.02,
    poll_interval_seconds=0.005,
)

OBSERVED = ObservabilityParams(endpoint=True)


def make_service(tmp_path, observability=OBSERVED) -> RankingService:
    return RankingService(
        tmp_path / "snapshots",
        serving=SERVING,
        observability=observability,
    )


def scrape_json(service, path: str) -> dict | list:
    with urlopen(service.telemetry.url(path), timeout=5.0) as resp:
        assert resp.status == 200
        return json.loads(resp.read())


def pump_one(service) -> None:
    """Run one queued update, waiting out the breaker's backoff."""
    target = service.pending() - 1
    deadline = time.perf_counter() + 30
    while service.pending() > target and time.perf_counter() < deadline:
        service.run_pending(max_updates=1)
        if service.pending() > target:
            time.sleep(0.005)


class TestZeroCostDefault:
    def test_observability_off_means_no_telemetry(self, tmp_path, tiny,
                                                  tiny_kappa):
        service = RankingService(tmp_path / "snapshots", serving=SERVING)
        assert service.telemetry is None
        assert service.tracer is None
        assert service.run_id is None
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        assert service.score(0).state == "healthy"
        health = service.health()
        assert health["run_id"] is None
        service.stop()

    def test_events_file_is_never_left_open(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            service = make_service(
                tmp_path, ObservabilityParams(events_path=str(path))
            )
            service.start()
            service.stop()
            service.start()  # a restarted service still appends
            service.stop()
            run_id = service.run_id
            del service
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        events = read_events(path)
        assert [e["kind"] for e in events].count("service_stop") == 2
        assert {e["run_id"] for e in events} == {run_id}


class TestEndpointUnderChaos:
    def test_scrapes_answered_in_every_degradation_state(
        self, tmp_path, tiny, tiny_kappa, evolve
    ):
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)

        scrape_failures: list[str] = []
        stop = threading.Event()

        def scraper() -> None:
            while not stop.is_set():
                for path in ("/metrics", "/health"):
                    try:
                        with urlopen(
                            service.telemetry.url(path), timeout=5.0
                        ) as resp:
                            if resp.status != 200 or not resp.read():
                                scrape_failures.append(path)
                    except Exception as exc:  # noqa: BLE001
                        scrape_failures.append(f"{path}: {exc}")
                time.sleep(0.001)

        threads = [threading.Thread(target=scraper) for _ in range(2)]
        for t in threads:
            t.start()

        states_scraped = set()
        graph = tiny.graph
        try:
            # Walk the full ladder: stale after 1 failure, baseline
            # after 2, read_only after 4; the clean recovery update is
            # queued with the final crash (read_only refuses new
            # writes but still drains what is already queued).
            expected = ["stale", "baseline", "baseline", "read_only"]
            for i, want in enumerate(expected):
                graph = evolve(graph)
                service.submit_update(
                    graph,
                    tiny.assignment,
                    tiny_kappa,
                    callback=crash_at_iteration(1),
                )
                if i == len(expected) - 1:
                    graph = evolve(graph)
                    service.submit_update(graph, tiny.assignment, tiny_kappa)
                pump_one(service)
                health = scrape_json(service, "/health")
                states_scraped.add(health["state"])
                assert health["state"] == want
                assert service.score(0).value >= 0.0  # reads never fail

            with pytest.raises(AdmissionError, match="read-only"):
                service.submit_update(graph, tiny.assignment, tiny_kappa)

            deadline = time.perf_counter() + 30
            while service.pending() and time.perf_counter() < deadline:
                service.run_pending()
                time.sleep(0.005)
            health = scrape_json(service, "/health")
            states_scraped.add(health["state"])
            assert health["state"] == "healthy"
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            service.stop()

        assert scrape_failures == []
        states_scraped.add("healthy")
        assert states_scraped == set(SERVING_STATES)

    def test_events_all_carry_one_run_id(self, tmp_path, tiny, tiny_kappa,
                                         evolve):
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        graph = evolve(tiny.graph)
        service.submit_update(graph, tiny.assignment, tiny_kappa)
        service.run_pending()
        graph = evolve(graph)
        service.submit_update(
            graph, tiny.assignment, tiny_kappa, callback=crash_at_iteration(1)
        )
        service.run_pending()
        service.stop()

        events = service.tracer.events()
        assert events
        assert {e["run_id"] for e in events} == {service.run_id}
        kinds = [e["kind"] for e in events]
        for expected in (
            "service_start",
            "bootstrap_start",
            "snapshot_published",
            "bootstrap_end",
            "update_submitted",
            "update_start",
            "update_applied",
            "update_failed",
            "state_transition",
            "service_stop",
        ):
            assert expected in kinds, f"missing event kind {expected}"
        down = [e for e in events if e["kind"] == "state_transition"]
        assert {"from_state", "to_state"} <= set(down[0])

    def test_health_reports_read_latency_and_state_seconds(
        self, tmp_path, tiny, tiny_kappa
    ):
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        for _ in range(20):
            service.score(0)
            service.top_k(3)
            service.percentile(0)
        health = scrape_json(service, "/health")
        service.stop()
        latency = health["read_latency"]
        assert {"score", "top_k", "percentile"} <= set(latency)
        for op_stats in latency.values():
            assert op_stats["count"] >= 20
            assert 0.0 <= op_stats["p50_seconds"] <= op_stats["p99_seconds"]
        assert health["run_id"] == service.run_id
        assert health["state_seconds"] >= 0.0  # time in the current state

    def test_trace_isolates_updater_spans_from_readers(
        self, tmp_path, tiny, tiny_kappa, evolve
    ):
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        stop = threading.Event()

        def read_hammer() -> None:
            while not stop.is_set():
                service.score(0)

        reader = threading.Thread(target=read_hammer)
        reader.start()
        graph = tiny.graph
        try:
            for _ in range(3):
                graph = evolve(graph)
                service.submit_update(graph, tiny.assignment, tiny_kappa)
                service.run_pending()
        finally:
            stop.set()
            reader.join(timeout=30)

        doc = scrape_json(service, "/trace")
        service.stop()
        update_roots = [r for r in service.tracer.roots if r.name == "update"]
        assert len(update_roots) == 3
        # Every span under an update root was opened by the same thread
        # as the root: reader activity never interleaves into the trace.
        for root in update_roots:
            assert {s.tid for s in root.walk()} == {root.tid}
        names = {e["name"] for e in doc["traceEvents"]}
        assert "update" in names
