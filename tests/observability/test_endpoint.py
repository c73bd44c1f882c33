"""Tests for the live telemetry scrape endpoint."""

from __future__ import annotations

import json
import threading
import urllib.error
from urllib.request import urlopen

import pytest

from repro.observability import (
    MetricsRegistry,
    TelemetryServer,
    Tracer,
)


def get(server: TelemetryServer, path: str):
    with urlopen(server.url(path), timeout=5.0) as resp:
        return resp.status, resp.headers.get("Content-Type"), resp.read()


def get_json(server: TelemetryServer, path: str):
    status, _, body = get(server, path)
    assert status == 200
    return json.loads(body)


@pytest.fixture()
def registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_runs_total", "Completed runs").inc(2)
    return reg


class TestRoutes:
    def test_metrics_exposition(self, registry) -> None:
        with TelemetryServer(registry=registry) as server:
            status, content_type, body = get(server, "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain; version=0.0.4")
        assert b"repro_runs_total 2\n" in body

    def test_health_default_and_custom(self, registry) -> None:
        with TelemetryServer(registry=registry) as server:
            assert get_json(server, "/health") == {"ready": True}
        health_fn = lambda: {"state": "healthy", "staleness_updates": 0}  # noqa: E731
        with TelemetryServer(registry=registry, health_fn=health_fn) as server:
            assert get_json(server, "/health")["state"] == "healthy"

    def test_health_stamped_with_run_id(self, registry) -> None:
        tracer = Tracer()
        tracer.emit("x")
        with TelemetryServer(registry=registry, tracer=tracer) as server:
            health = get_json(server, "/health")
        assert health["run_id"] == tracer.run_id
        assert health["events_emitted"] == 1

    def test_trace_chrome_document(self, registry) -> None:
        tracer = Tracer()
        with tracer.activate(), tracer.span("pipeline"):
            with tracer.span("stage:rank", residuals=[0.5, 0.25]):
                pass
        with TelemetryServer(registry=registry, tracer=tracer) as server:
            doc = get_json(server, "/trace")
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"pipeline", "stage:rank"} <= names
        # Series stay in the JSON export; the Chrome args hold scalars.
        assert all("residuals" not in e["args"] for e in doc["traceEvents"])
        with TelemetryServer(registry=registry) as server:
            assert get_json(server, "/trace")["traceEvents"] == []

    def test_events_tail_and_limit(self, registry) -> None:
        tracer = Tracer()
        for i in range(5):
            tracer.emit("tick", i=i)
        with TelemetryServer(registry=registry, tracer=tracer) as server:
            assert len(get_json(server, "/events")) == 5
            tail = get_json(server, "/events?limit=2")
        assert [e["i"] for e in tail] == [3, 4]

    def test_events_limit_must_be_a_non_negative_integer(
        self, registry, caplog
    ) -> None:
        tracer = Tracer()
        for i in range(5):
            tracer.emit("tick", i=i)
        with TelemetryServer(registry=registry, tracer=tracer) as server:
            assert get_json(server, "/events?limit=0") == []
            assert len(get_json(server, "/events?limit=9")) == 5
            for bad in ("-2", "abc", "1.5", ""):
                with pytest.raises(urllib.error.HTTPError) as err:
                    get(server, f"/events?limit={bad}")
                assert err.value.code == 400, bad
        # A bad query is the client's error: no traceback in the log.
        assert not [r for r in caplog.records if r.exc_info]

    def test_unknown_route_404(self, registry) -> None:
        with TelemetryServer(registry=registry) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                get(server, "/nope")
            assert err.value.code == 404


class TestLifecycle:
    def test_port_zero_picks_a_free_port(self, registry) -> None:
        with TelemetryServer(registry=registry) as server:
            host, port = server.address
            assert host == "127.0.0.1" and port > 0
            assert server.url("/health").endswith(f":{port}/health")

    def test_start_is_idempotent_and_stop_closes(self, registry) -> None:
        server = TelemetryServer(registry=registry).start()
        try:
            assert server.start() is server  # no rebind
            url = server.url("/metrics")
        finally:
            server.stop()
        server.stop()  # idempotent
        with pytest.raises(urllib.error.URLError):
            urlopen(url, timeout=1.0)

    def test_restart_after_stop(self, registry) -> None:
        server = TelemetryServer(registry=registry)
        server.start()
        server.stop()
        with server:  # second lifecycle on the same instance
            status, _, _ = get(server, "/metrics")
        assert status == 200

    def test_concurrent_scrapes_all_answered(self, registry) -> None:
        tracer = Tracer()
        tracer.emit("x")
        failures: list[str] = []
        with TelemetryServer(registry=registry, tracer=tracer) as server:

            def scraper() -> None:
                for path in ("/metrics", "/health", "/events") * 10:
                    try:
                        status, _, body = get(server, path)
                        if status != 200 or not body:
                            failures.append(f"{path}: {status}")
                    except Exception as exc:  # noqa: BLE001
                        failures.append(f"{path}: {exc}")

            threads = [threading.Thread(target=scraper) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert failures == []
