"""Tests for the replicated serving fleet: snapshot adoption ordering,
the replica read protocol, process lifecycle, and fleet orchestration."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.config import FleetParams, ObservabilityParams, ServingParams
from repro.errors import FleetError, ServingError
from repro.serving import (
    RankingService,
    ReplicaHandle,
    ReplicaService,
    ServingFleet,
    SnapshotFollower,
    SnapshotStore,
    replica_request,
)

FAST_FLEET = FleetParams(
    replicas=2,
    replica_poll_seconds=0.02,
    probe_interval_seconds=0.05,
    batch_linger_seconds=0.005,
    spawn_timeout_seconds=90.0,
)
SERVING = ServingParams(backoff_base_seconds=0.01, backoff_max_seconds=0.05)


def publish(store: SnapshotStore, n: int = 32, scale: float = 1.0):
    sigma = (np.arange(n, dtype=np.float64) + 1.0) * scale
    return store.publish(kind="sr", sigma=sigma, kappa=np.zeros(n))


class TestSnapshotFollower:
    def test_adopts_first_then_newer(self, tmp_path):
        store = SnapshotStore(tmp_path)
        follower = SnapshotFollower(store)
        assert follower.current is None
        v1 = publish(store)
        assert follower.poll_once()
        assert follower.current.version == v1.version
        v2 = publish(store, scale=2.0)
        assert follower.poll_once()
        assert follower.current.version == v2.version
        assert follower.adoptions == 2

    def test_same_version_not_readopted(self, tmp_path):
        store = SnapshotStore(tmp_path)
        follower = SnapshotFollower(store)
        publish(store)
        assert follower.poll_once()
        assert not follower.poll_once()
        assert follower.adoptions == 1

    def test_never_adopts_older_after_newer(self, tmp_path):
        store = SnapshotStore(tmp_path)
        follower = SnapshotFollower(store)
        v1 = publish(store)
        v2 = publish(store, scale=2.0)
        assert follower.adopt(v2)
        # Explicit attempt to go back in time is refused and counted.
        assert not follower.adopt(v1)
        assert follower.current.version == v2.version
        assert follower.rejected_stale == 1

    def test_torn_newest_does_not_roll_the_replica_back(self, tmp_path):
        # After the newest file is corrupted, latest() lands on the older
        # healthy snapshot — the follower must keep serving the newer σ
        # it already adopted rather than regress.
        store = SnapshotStore(tmp_path)
        follower = SnapshotFollower(store)
        publish(store)
        v2 = publish(store, scale=2.0)
        assert follower.poll_once()
        assert follower.current.version == v2.version
        store.path_for(v2.version).write_bytes(b"torn")
        assert not follower.poll_once()
        assert follower.current.version == v2.version
        np.testing.assert_allclose(
            follower.current.sigma, v2.sigma
        )

    def test_adoption_is_digest_verified(self, tmp_path):
        store = SnapshotStore(tmp_path)
        follower = SnapshotFollower(store)
        v1 = publish(store)
        store.path_for(v1.version).write_bytes(b"corrupt")
        assert not follower.poll_once()
        assert follower.current is None

    def test_percentiles_cached_and_reset_on_adopt(self, tmp_path):
        store = SnapshotStore(tmp_path)
        follower = SnapshotFollower(store)
        publish(store)
        follower.poll_once()
        first = follower.percentiles()
        assert follower.percentiles() is first
        publish(store, scale=3.0)
        follower.poll_once()
        assert follower.percentiles() is not first

    def test_empty_follower_refuses_reads(self, tmp_path):
        follower = SnapshotFollower(SnapshotStore(tmp_path))
        with pytest.raises(ServingError, match="no snapshot"):
            follower.snapshot_for_read()
        with pytest.raises(ServingError, match="no snapshot"):
            follower.percentiles()


class TestFollowerUnderChaos:
    """SnapshotFollower driven through an injected-fault store: adoption
    must stay atomic (never a partially-adopted snapshot) and every
    rejection kind must land on its own counter label."""

    def test_slow_adoption_never_exposes_partial_state(self, tmp_path):
        from repro.resilience.faults import FaultPlan, FaultRule, FaultyStore

        store = SnapshotStore(tmp_path)
        plan = FaultPlan(seed=7)
        plan.add(
            "nfs", FaultRule(kind="slow_adopt", latency_seconds=0.05)
        )
        follower = SnapshotFollower(FaultyStore(store, plan))
        v1 = publish(store)
        assert follower.poll_once()
        v2 = publish(store, scale=2.0)
        plan.activate("nfs")
        # sigma[1] is 2.0 under v1 and 4.0 under v2: a torn view would
        # pair one version with the other's payload.
        expected = {v1.version: 2.0, v2.version: 4.0}
        observed: list[tuple[int, float]] = []
        stop = threading.Event()

        def watch() -> None:
            while not stop.is_set():
                snap = follower.current
                if snap is not None:
                    observed.append((snap.version, float(snap.sigma[1])))

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            assert follower.poll_once()  # sleeps through the injected delay
        finally:
            stop.set()
            watcher.join(timeout=10)
        assert follower.current.version == v2.version
        assert plan.fired["nfs"] > 0
        assert observed, "the watcher must have seen the follower mid-adopt"
        for version, sigma_1 in observed:
            assert expected[version] == sigma_1, (
                f"version {version} served with the wrong payload "
                f"({sigma_1})"
            )

    def test_torn_adoption_and_staleness_reject_on_distinct_labels(
        self, tmp_path
    ):
        from repro.observability import get_registry
        from repro.resilience.faults import FaultPlan, FaultRule, FaultyStore

        registry = get_registry()
        store_rejects = registry.counter(
            "repro_snapshot_rejects_total", labelnames=("reason",)
        )
        adopt_rejects = registry.counter(
            "repro_fleet_adoption_rejects_total", labelnames=("reason",)
        )

        def totals() -> dict[str, float]:
            return {
                "unreadable": store_rejects.labels(reason="unreadable").value,
                "digest": store_rejects.labels(reason="digest").value,
                "stale": adopt_rejects.labels(reason="stale").value,
            }

        store = SnapshotStore(tmp_path)
        plan = FaultPlan(seed=3)
        plan.add("tear", FaultRule(kind="torn_publish"))
        faulty = FaultyStore(store, plan)
        follower = SnapshotFollower(faulty)
        v1 = publish(store)
        assert follower.poll_once()
        before = totals()
        plan.activate("tear")
        v2 = publish(faulty, scale=2.0)  # truncated on disk after write
        plan.deactivate("tear")
        # The torn newest file must be rejected at load time and the
        # follower must keep serving the intact v1 payload.
        assert not follower.poll_once()
        assert follower.current.version == v1.version
        np.testing.assert_allclose(follower.current.sigma, v1.sigma)
        after_torn = totals()
        torn_kinds = (
            after_torn["unreadable"]
            - before["unreadable"]
            + after_torn["digest"]
            - before["digest"]
        )
        assert torn_kinds >= 1, "torn file must land on a storage label"
        assert after_torn["stale"] == before["stale"]
        # A stale adoption attempt lands on its own label, not storage's.
        v3 = publish(store, scale=3.0)
        assert follower.poll_once()
        assert follower.current.version == v3.version
        assert not follower.adopt(store.load(v1.version))
        after_stale = totals()
        assert after_stale["stale"] == after_torn["stale"] + 1
        assert after_stale["unreadable"] == after_torn["unreadable"]
        assert after_stale["digest"] == after_torn["digest"]
        assert follower.rejected_stale == 1
        assert v2.version < v3.version

    def test_disk_full_publish_fails_cleanly_and_store_stays_healthy(
        self, tmp_path
    ):
        import errno

        from repro.resilience.faults import FaultPlan, FaultRule, FaultyStore

        store = SnapshotStore(tmp_path)
        plan = FaultPlan(seed=1)
        plan.add("enospc", FaultRule(kind="disk_full"))
        faulty = FaultyStore(store, plan)
        v1 = publish(faulty)
        plan.activate("enospc")
        with pytest.raises(OSError) as err:
            publish(faulty, scale=2.0)
        assert err.value.errno == errno.ENOSPC
        # Nothing was half-written: the newest healthy snapshot is v1.
        assert store.latest(kind="sr").version == v1.version
        plan.deactivate("enospc")
        v3 = publish(faulty, scale=3.0)
        assert store.latest(kind="sr").version == v3.version


class TestReplicaServiceInProcess:
    """The request→response map, no sockets or processes involved."""

    @pytest.fixture()
    def replica(self, tmp_path):
        store = SnapshotStore(tmp_path)
        publish(store, n=16)
        service = ReplicaService(store, replica_id=7)
        assert service.follower.poll_once()
        return service

    def test_score_batch(self, replica):
        response = replica.handle({"op": "score", "ids": [0, 15]})
        assert response["ok"]
        assert response["replica"] == 7
        assert response["version"] == 1
        assert len(response["values"]) == 2
        assert response["age"] >= 0.0

    def test_score_out_of_range_is_typed_error(self, replica):
        response = replica.handle({"op": "score", "ids": [3, -1]})
        assert not response["ok"]
        assert response["error"] == "NodeIndexError"
        assert "-1" in response["detail"]
        response = replica.handle({"op": "score", "ids": [16]})
        assert response["error"] == "NodeIndexError"

    def test_percentile_matches_result(self, replica):
        response = replica.handle({"op": "percentile", "ids": [15]})
        assert response["ok"]
        expected = replica.follower.current.result().percentile_of(15)
        assert response["values"][0] == pytest.approx(expected)

    def test_percentile_read_names_one_version(
        self, replica, tmp_path, monkeypatch
    ):
        """An adoption landing mid-read (the poll thread's interleaving,
        made deterministic) must not pair v1's label with v2's table."""
        follower = replica.follower
        reversed_sigma = np.arange(16, 0, -1, dtype=np.float64)
        SnapshotStore(tmp_path).publish(
            kind="sr", sigma=reversed_sigma, kappa=np.zeros(16)
        )
        read = follower.snapshot_for_read

        def read_then_adopt():
            snapshot = read()
            assert follower.poll_once()
            return snapshot

        monkeypatch.setattr(follower, "snapshot_for_read", read_then_adopt)
        response = replica.handle({"op": "percentile", "ids": [0, 15]})
        assert follower.current.version == 2
        assert response["ok"] and response["version"] == 1
        # v1's σ ascends with the id, so id 15 is best; v2 reverses it.
        assert response["values"] == [0.0, 100.0]

    def test_top_k(self, replica):
        response = replica.handle({"op": "top_k", "k": 3})
        assert response["ok"]
        assert response["ids"] == [15, 14, 13]

    def test_sigma_round_trips_exactly(self, replica):
        response = replica.handle({"op": "sigma"})
        served = np.asarray(response["sigma"])
        np.testing.assert_array_equal(
            served, replica.follower.current.result().scores
        )

    def test_health_document(self, replica):
        replica.handle({"op": "score", "ids": [0, 1, 2]})
        health = replica.handle({"op": "health"})
        assert health["ok"] and health["ready"]
        assert health["replica"] == 7
        assert health["snapshot_version"] == 1
        assert health["reads_ok"] == 3
        assert health["adoptions"] == 1

    def test_unknown_op_and_empty_replica(self, tmp_path, replica):
        assert replica.handle({"op": "nope"})["error"] == "FleetError"
        empty = ReplicaService(SnapshotStore(tmp_path / "empty"))
        response = empty.handle({"op": "score", "ids": [0]})
        assert response["error"] == "ServingError"
        assert empty.handle({"op": "health"})["ready"] is False

    def test_reads_error_counted(self, replica):
        replica.handle({"op": "score", "ids": [-5]})
        assert replica.handle({"op": "health"})["reads_error"] == 1


class TestReplicaOverTCP:
    """The same service behind its threading TCP server (in-process)."""

    def test_serve_adopt_and_stop(self, tmp_path):
        store = SnapshotStore(tmp_path)
        publish(store, n=16)
        replica = ReplicaService(store, replica_id=0, poll_interval=0.02)
        replica.bind()
        thread = threading.Thread(target=replica.serve_forever, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 5
            while replica.follower.current is None:
                assert time.monotonic() < deadline, "first adoption timed out"
                time.sleep(0.01)
            address = replica.address
            response = replica_request(address, {"op": "score", "ids": [1]})
            assert response["ok"] and response["version"] == 1
            # A new publish is adopted live, without reconnecting.
            publish(store, n=16, scale=2.0)
            deadline = time.monotonic() + 5
            while True:
                health = replica_request(address, {"op": "health"})
                if health["snapshot_version"] == 2:
                    break
                assert time.monotonic() < deadline, "live adoption timed out"
                time.sleep(0.02)
            assert replica_request(address, {"op": "stop"})["stopping"]
            thread.join(timeout=10)
            assert not thread.is_alive()
        finally:
            replica.close()


class TestReplicaProcess:
    def test_spawn_requires_a_snapshot(self, tmp_path):
        params = FAST_FLEET.with_(spawn_timeout_seconds=6.0)
        with pytest.raises(FleetError, match="no healthy snapshot"):
            ReplicaHandle.spawn(tmp_path, 0, params)

    def test_spawn_serve_kill(self, tmp_path):
        store = SnapshotStore(tmp_path)
        publish(store, n=16)
        handle = ReplicaHandle.spawn(tmp_path, 3, FAST_FLEET)
        try:
            assert handle.alive()
            health = replica_request(handle.address, {"op": "health"})
            assert health["ok"] and health["replica"] == 3
            assert health["snapshot_version"] == 1
        finally:
            handle.kill()
        assert not handle.alive()


class TestServingFleet:
    def test_fleet_serves_what_the_publisher_published(
        self, tmp_path, tiny, tiny_kappa
    ):
        service = RankingService(tmp_path / "snapshots", serving=SERVING)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        with ServingFleet(service, FAST_FLEET) as fleet:
            with fleet.client() as client:
                n = tiny.assignment.n_sources
                response = client.score(list(range(n)))
                assert response["ok"]
                np.testing.assert_allclose(
                    response["values"],
                    service.store.latest(kind="sr").result().scores,
                )
                top = client.top_k(5)
                np.testing.assert_array_equal(
                    top["ids"], service.top_k(5).value
                )
                health = fleet.health()
                assert health["fleet"] is True
                assert health["publisher"]["state"] == "healthy"
                assert set(health["replicas"]) == {"0", "1"}
                assert all(
                    entry["state"] == "active"
                    for entry in health["replicas"].values()
                )
        assert not fleet.replicas  # teardown reaped every process

    def test_kill_and_restart_replica(self, tmp_path, tiny, tiny_kappa):
        service = RankingService(tmp_path / "snapshots", serving=SERVING)
        snap = service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        with ServingFleet(service, FAST_FLEET) as fleet:
            with fleet.client() as client:
                fleet.kill_replica(0)
                # Reads survive the kill — the door evicts and retries.
                for node in range(20):
                    assert client.score([node % snap.n])["ok"]
                handle = fleet.restart_replica(0)
                assert handle.alive()
                deadline = time.monotonic() + 10
                while True:
                    states = {
                        rid: entry["state"]
                        for rid, entry in client.health()["replicas"].items()
                    }
                    if states == {"0": "active", "1": "active"}:
                        break
                    assert time.monotonic() < deadline, states
                    time.sleep(0.05)
                # Post-restart σ identity against the publisher's latest.
                sigma = replica_request(
                    fleet.replicas[0].address, {"op": "sigma"}
                )["sigma"]
                latest = service.store.latest(kind="sr")
                assert (
                    np.abs(np.asarray(sigma) - latest.result().scores).max()
                    <= 1e-9
                )
                stats = client.stats()["stats"]
                assert stats["reads"]["failed"] == 0

    def test_telemetry_health_gains_fleet_fanout(
        self, tmp_path, tiny, tiny_kappa
    ):
        service = RankingService(
            tmp_path / "snapshots",
            serving=SERVING,
            observability=ObservabilityParams(endpoint=True),
        )
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        try:
            with ServingFleet(service, FAST_FLEET) as fleet:
                url = service.telemetry.url("/health")
                with urllib.request.urlopen(url, timeout=30) as response:
                    payload = json.loads(response.read())
                assert payload["fleet"] is True
                assert payload["publisher"]["ready"] is True
                assert set(payload["replicas"]) == {"0", "1"}
                for entry in payload["replicas"].values():
                    assert entry["state"] == "active"
                    assert entry["snapshot_version"] is not None
                assert fleet.params.replicas == 2
            # After stop, /health reverts to the plain publisher document
            # (the endpoint itself is down too — read the payload builder).
            payload = service.telemetry.health_payload()
            assert "fleet" not in payload
            assert "state" in payload
        finally:
            service.stop()
