"""Unit tests for :mod:`repro.serving.snapshot`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.container import read_container, write_container
from repro.errors import ServingError
from repro.linalg.iterate import ConvergenceInfo
from repro.observability.metrics import get_registry, reset_registry
from repro.serving import RankingSnapshot, SnapshotStore


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


def sigma(n: int = 8, seed: int = 0) -> np.ndarray:
    gen = np.random.default_rng(seed)
    x = gen.random(n)
    return x / x.sum()


def publish_one(store: SnapshotStore, *, kind: str = "sr", seed: int = 0):
    return store.publish(
        kind=kind,
        sigma=sigma(seed=seed),
        kappa=np.zeros(8),
        key="k",
        solver="power",
        convergence=ConvergenceInfo(True, 5, 1e-10, 1e-9),
    )


def rewrite(path, *, keep_seal: bool, **values) -> None:
    """Re-save one snapshot with ``values`` replacing its fields or arrays.

    With ``keep_seal`` the file keeps its old trailing digest, as bytes
    changed in place would.
    """
    fields, arrays, digest = read_container(path)
    fields, arrays = dict(fields), dict(arrays)
    for name, value in values.items():
        (fields if name in fields else arrays)[name] = value
    write_container(path, fields, arrays)
    if keep_seal:
        path.write_bytes(path.read_bytes()[:-32] + bytes.fromhex(digest))


def counter_value(name: str, **labels: str) -> float:
    for family in get_registry().families():
        if family.name == name:
            for child in family.children():
                if child.label_values == labels:
                    return child.value
    return 0.0


class TestPublishLoad:
    def test_roundtrip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        published = publish_one(store)
        loaded = store.load(published.version)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.sigma, published.sigma)
        np.testing.assert_array_equal(loaded.kappa, published.kappa)
        assert loaded.kind == "sr"
        assert loaded.key == "k"
        assert loaded.solver == "power"
        assert loaded.convergence.iterations == 5
        assert loaded.published_at == published.published_at

    def test_converged_flag_round_trips(self, tmp_path):
        # A snapshot published from a non-converged result must reload
        # with converged=False — provenance is never falsified.
        store = SnapshotStore(tmp_path)
        snap = store.publish(
            kind="sr",
            sigma=sigma(),
            kappa=np.zeros(8),
            key="k",
            solver="power",
            convergence=ConvergenceInfo(False, 500, 1e-3, 1e-9),
        )
        loaded = store.load(snap.version)
        assert loaded is not None
        assert loaded.convergence.converged is False
        converged = store.publish(
            kind="sr",
            sigma=sigma(seed=1),
            kappa=np.zeros(8),
            convergence=ConvergenceInfo(True, 7, 1e-10, 1e-9),
        )
        assert store.load(converged.version).convergence.converged is True

    def test_converged_flag_is_digest_protected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snap = publish_one(store)
        rewrite(store.path_for(snap.version), keep_seal=True, converged=False)
        assert store.load(snap.version) is None

    def test_versions_monotonic(self, tmp_path):
        store = SnapshotStore(tmp_path)
        v = [publish_one(store, seed=i).version for i in range(3)]
        assert v == [1, 2, 3]
        assert store.versions() == (1, 2, 3)

    def test_bad_kind_rejected(self):
        with pytest.raises(ServingError, match="kind"):
            RankingSnapshot(
                version=1,
                kind="nope",
                sigma=sigma(),
                kappa=np.zeros(8),
                key="",
                published_at=0.0,
                solver="",
                convergence=ConvergenceInfo(True, 0, 0.0, 0.0),
            )

    def test_missing_version_is_none(self, tmp_path):
        assert SnapshotStore(tmp_path).load(99) is None

    def test_result_is_cached_and_normalized(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snap = publish_one(store)
        result = snap.result()
        assert result is snap.result()
        assert result.scores.sum() == pytest.approx(1.0)


class TestIntegrity:
    def test_torn_file_skipped_by_latest(self, tmp_path):
        store = SnapshotStore(tmp_path)
        good = publish_one(store, seed=1)
        bad = publish_one(store, seed=2)
        # Truncate the newest file: simulates a torn write by an agent
        # that bypassed the atomic publish (or disk corruption).
        path = store.path_for(bad.version)
        path.write_bytes(path.read_bytes()[:40])
        assert store.load(bad.version) is None
        latest = store.latest()
        assert latest is not None and latest.version == good.version
        assert counter_value(
            "repro_snapshot_rejects_total", reason="unreadable"
        ) >= 1

    def test_garbage_file_skipped(self, tmp_path):
        store = SnapshotStore(tmp_path)
        good = publish_one(store)
        store.path_for(good.version + 1).write_bytes(b"not an npz at all")
        assert store.latest().version == good.version

    def test_tampered_payload_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snap = publish_one(store)
        rewrite(store.path_for(snap.version), keep_seal=True, sigma=snap.sigma * 2.0)
        assert store.load(snap.version) is None
        assert counter_value("repro_snapshot_rejects_total", reason="digest") == 1

    def test_wrong_format_version_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        snap = publish_one(store)
        rewrite(store.path_for(snap.version), keep_seal=False, format_version=999)
        assert store.load(snap.version) is None
        assert counter_value(
            "repro_snapshot_rejects_total", reason="format_version"
        ) == 1

    def test_publish_counts_by_kind(self, tmp_path):
        store = SnapshotStore(tmp_path)
        publish_one(store, kind="baseline")
        publish_one(store, kind="sr")
        publish_one(store, kind="sr", seed=1)
        assert counter_value("repro_snapshot_publishes_total", kind="sr") == 2
        assert counter_value("repro_snapshot_publishes_total", kind="baseline") == 1


class TestRetention:
    def test_prune_keeps_newest_per_kind(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        publish_one(store, kind="baseline")
        for i in range(5):
            publish_one(store, kind="sr", seed=i)
        kinds = {store.load(v).kind for v in store.versions()}
        # The old baseline survives even though 5 SR snapshots followed.
        assert kinds == {"sr", "baseline"}
        sr_versions = [
            v for v in store.versions() if store.load(v).kind == "sr"
        ]
        assert len(sr_versions) == 2
        assert sr_versions == [5, 6]

    def test_prune_clears_stale_garbage(self, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        publish_one(store)
        store.path_for(0).write_bytes(b"junk")  # older than any healthy file
        store.prune()
        assert not store.path_for(0).exists()

    def test_prune_does_not_reverify_known_snapshots(self, tmp_path, monkeypatch):
        # The prune that runs on every publish must not re-load (and
        # re-sha256) the whole retained set: kinds published through
        # this store instance are cached.
        store = SnapshotStore(tmp_path, keep=4)
        for i in range(6):
            publish_one(store, seed=i)
        loads = []
        original = SnapshotStore.load

        def counting_load(self, version):
            loads.append(version)
            return original(self, version)

        monkeypatch.setattr(SnapshotStore, "load", counting_load)
        store.prune()
        assert loads == []

    def test_version_counter_survives_pruning(self, tmp_path):
        # Versions must stay monotonic even after old files are deleted.
        store = SnapshotStore(tmp_path, keep=1)
        for i in range(4):
            snap = publish_one(store, seed=i)
        assert snap.version == 4
        assert store.versions() == (4,)
        assert publish_one(store, seed=9).version == 5
