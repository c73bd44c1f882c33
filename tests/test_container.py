"""The on-disk container and the three formats built on it.

Snapshots, graph-store shards and solve checkpoints must refuse every
corrupted file through their own contract, never run code stored in a
file, and survive a crash at any file operation of a write.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import repro.container as container
from repro.container import read_container, write_container
from repro.errors import CodecError, GraphError
from repro.graph import PageGraph
from repro.linalg.iterate import ConvergenceInfo
from repro.observability.metrics import get_registry, reset_registry
from repro.resilience import SimulatedCrash, SolveCheckpointer
from repro.serving import SnapshotStore
from repro.webgraph.store import ShardedGraphStore


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


def _rejects(name: str | None, **labels: str) -> float:
    """Sum of the counter ``name`` over the children matching ``labels``."""
    total = 0.0
    for family in get_registry().families():
        if family.name == name:
            for child in family.children():
                if labels.items() <= child.label_values.items():
                    total += child.value
    return total


def _graph(seed: int, n: int, n_links: int) -> PageGraph:
    gen = np.random.default_rng(seed)
    return PageGraph.from_edges(
        gen.integers(0, n, n_links), gen.integers(0, n, n_links), n
    )


def _sigma(seed: int) -> np.ndarray:
    x = np.random.default_rng(seed).random(8)
    return x / x.sum()


# ----------------------------------------------------------------------
# The container itself
# ----------------------------------------------------------------------
def _seal(header: dict, data: bytes = b"") -> bytes:
    """A well-sealed container around any header, however wrong."""
    raw = json.dumps(header).encode()
    pad = bytes(-(24 + len(raw)) % container.ALIGN)
    size = 24 + len(raw) + len(pad) + len(data) + 32
    body = struct.pack(
        "<8sIIQ", container.MAGIC, container.LAYOUT_VERSION, len(raw), size
    )
    body += raw + pad + data
    return body + hashlib.sha256(body).digest()


def _spec(dtype, shape=(1,), offset=0) -> dict:
    return {"dtype": dtype, "shape": list(shape), "offset": offset}


class TestContainer:
    def test_roundtrip(self, tmp_path):
        fields = {"kind": "sr", "n": 3, "ok": True, "residual": 0.1, "tags": ["a"]}
        arrays = {
            "sigma": np.linspace(0.0, 1.0, 5),
            "grid": np.arange(6, dtype=np.int32).reshape(2, 3),
            "mask": np.array([True, False]),
            "empty": np.empty(0, dtype=np.uint8),
        }
        path = tmp_path / "c"
        digest = write_container(path, fields, arrays)
        blob = path.read_bytes()
        assert hashlib.sha256(blob[:-32]).hexdigest() == digest
        got = read_container(path)
        assert got.fields == fields
        assert got.digest == digest
        for name, array in arrays.items():
            assert got.arrays[name].dtype == array.dtype
            np.testing.assert_array_equal(got.arrays[name], array)
            assert not got.arrays[name].flags.writeable
        size = struct.unpack_from("<I", blob, 12)[0]
        offsets = [
            24 + size + (-(24 + size) % 64) + spec["offset"]
            for spec in json.loads(blob[24 : 24 + size])["arrays"].values()
        ]
        assert all(offset % 64 == 0 for offset in offsets)

    def test_missing_file_is_unreadable(self, tmp_path):
        with pytest.raises(CodecError) as info:
            read_container(tmp_path / "absent")
        assert info.value.reason == "unreadable"

    def test_flipped_byte_fails_the_digest(self, tmp_path):
        path = tmp_path / "c"
        write_container(path, {"n": 1}, {"x": np.arange(4.0)})
        blob = bytearray(path.read_bytes())
        blob[-40] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CodecError, match="digest") as info:
            read_container(path)
        assert info.value.reason == "digest"

    @pytest.mark.parametrize(
        "header",
        [
            {"fields": {}, "arrays": {"a": _spec("|O", [1], 0)}},
            {"fields": {}, "arrays": {"a": _spec({"names": ["o"], "formats": ["O"]})}},
            {"fields": {}, "arrays": {"a": _spec("<f8", [9], 0)}},
            {"fields": {}, "arrays": {"a": _spec("<f8", [1], 64)}},
            {"fields": {}, "arrays": {"a": _spec("<f8", [1], 8)}},
            {"fields": {}, "arrays": {"a": _spec("<f8", [-1], 0)}},
            {"fields": {}, "arrays": []},
            {"arrays": {}},
        ],
        ids=[
            "object-dtype",
            "structured-object-dtype",
            "past-the-end",
            "offset-outside",
            "misaligned",
            "negative-shape",
            "arrays-not-a-mapping",
            "no-fields",
        ],
    )
    def test_sealed_but_malformed_header_is_unreadable(self, header, tmp_path):
        path = tmp_path / "c"
        path.write_bytes(_seal(header, bytes(64)))
        with pytest.raises(CodecError) as info:
            read_container(path)
        assert info.value.reason == "unreadable"

    def test_header_longer_than_the_file_is_unreadable(self, tmp_path):
        path = tmp_path / "c"
        body = struct.pack(
            "<8sIIQ", container.MAGIC, container.LAYOUT_VERSION, 1 << 20, 56
        )
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(CodecError, match="past the end") as info:
            read_container(path)
        assert info.value.reason == "unreadable"

    def test_torn_file_is_unreadable(self, tmp_path):
        path = tmp_path / "c"
        write_container(path, {}, {"x": np.arange(100.0)})
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(CodecError, match="expected") as info:
            read_container(path)
        assert info.value.reason == "unreadable"


# ----------------------------------------------------------------------
# Every format refuses every corrupted file through its own contract
# ----------------------------------------------------------------------
class _Shard:
    """Block 0 (256 rows) of the 800-page store of ``test_store.py``."""

    counter = "repro_store_rejects_total"

    def __init__(self, directory: Path) -> None:
        self.store = ShardedGraphStore.from_pagegraph(
            _graph(7, 800, 8000), directory, block_size=256
        )
        self.path = directory / self.store.shards[0].filename

    def load(self) -> bool:
        """True if the block loads; False if refused with ``CodecError``."""
        try:
            self.store.load_block(0)
        except CodecError:
            return False
        return True


class _Snapshot:
    counter = "repro_snapshot_rejects_total"

    def __init__(self, directory: Path) -> None:
        self.store = SnapshotStore(directory)
        snapshot = self.store.publish(
            kind="sr",
            sigma=_sigma(0),
            kappa=np.zeros(8),
            key="k",
            solver="power",
            convergence=ConvergenceInfo(True, 5, 1e-10, 1e-9),
        )
        self.version = snapshot.version
        self.path = self.store.path_for(snapshot.version)

    def load(self) -> bool:
        return self.store.load(self.version) is not None


class _Checkpoint:
    counter = None  # a refused checkpoint costs a recompute, not a count

    def __init__(self, directory: Path) -> None:
        self.checkpointer = SolveCheckpointer(directory, resume=True)
        self.checkpointer.save("solve", _sigma(1), 10, 1e-3)
        self.path = self.checkpointer.path_for("solve")

    def load(self) -> bool:
        return self.checkpointer.load("solve") is not None


FORMATS = pytest.mark.parametrize(
    "make", [_Shard, _Snapshot, _Checkpoint], ids=["shard", "snapshot", "checkpoint"]
)


@FORMATS
def test_every_flipped_byte_and_every_cut_is_rejected(make, tmp_path):
    fmt = make(tmp_path / "f")
    good = fmt.path.read_bytes()
    assert fmt.load()
    cases = [
        (f"flip {i}", good[:i] + bytes([good[i] ^ 0xFF]) + good[i + 1 :])
        for i in range(len(good))
    ]
    cases += [(f"cut at {n}", good[:n]) for n in range(len(good))]
    loaded, uncounted = [], []
    for name, blob in cases:
        fmt.path.write_bytes(blob)
        before = _rejects(fmt.counter)
        if fmt.load():
            loaded.append(name)
        elif fmt.counter and _rejects(fmt.counter) != before + 1:
            uncounted.append(name)
    assert (loaded, uncounted) == ([], []), (
        f"{len(loaded)} of {len(cases)} corrupt files loaded, "
        f"{len(uncounted)} refused without one count: {(loaded + uncounted)[:5]}"
    )


def _mark(path: str) -> None:
    Path(path).write_text("ran")


class _RunsOnUnpickle:
    def __init__(self, marker: Path) -> None:
        self.marker = marker

    def __reduce__(self):
        return (_mark, (str(self.marker),))


@FORMATS
def test_pickled_npz_under_the_format_name_is_refused_unrun(make, tmp_path):
    fmt = make(tmp_path / "f")
    marker = tmp_path / "ran"
    with open(fmt.path, "wb") as handle:
        np.savez(handle, x=np.array([_RunsOnUnpickle(marker)], dtype=object))
    assert not fmt.load()
    assert not marker.exists()
    if fmt.counter:
        assert _rejects(fmt.counter) == _rejects(fmt.counter, reason="unreadable") == 1
    # The file is live: a reader that unpickles would have run it.
    with np.load(fmt.path, allow_pickle=True) as archive:
        archive["x"]
    assert marker.exists()


# ----------------------------------------------------------------------
# A crash at any file operation leaves the old state or the new one
# ----------------------------------------------------------------------
class _CrashingOs:
    """Stands in for :mod:`repro.container`'s ``os``: records each file
    operation and, from operation ``crash_at`` on, raises instead of
    performing it — so, as in a killed process, no cleanup runs."""

    def __init__(self, crash_at: int | None = None) -> None:
        self.ops: list[str] = []
        self.crash_at = crash_at
        self._dir_fds: set[int] = set()

    def __getattr__(self, name):
        return getattr(os, name)

    def _op(self, name: str) -> None:
        if self.crash_at is not None and len(self.ops) >= self.crash_at:
            raise SimulatedCrash(f"crashed at file operation {self.crash_at}")
        self.ops.append(name)

    def open(self, path, flags, mode=0o777):
        if flags & os.O_CREAT:
            self._op("create")
            return os.open(path, flags, mode)
        fd = os.open(path, flags, mode)
        self._dir_fds.add(fd)
        return fd

    def write(self, fd, data):
        self._op("write")
        return os.write(fd, data)

    def fsync(self, fd):
        self._op("fsync_dir" if fd in self._dir_fds else "fsync")
        os.fsync(fd)

    def replace(self, src, dst):
        self._op("replace")
        os.replace(src, dst)

    def unlink(self, path):
        self._op("unlink")
        os.unlink(path)

    def close(self, fd):
        self._dir_fds.discard(fd)
        os.close(fd)


def _snapshots_before(directory):
    store = SnapshotStore(directory, keep=1)
    store.publish(kind="baseline", sigma=_sigma(0), kappa=np.zeros(8))
    store.publish(kind="sr", sigma=_sigma(1), kappa=np.zeros(8))


def _publish_and_prune(directory):
    store = SnapshotStore(directory, keep=1)
    store.publish(kind="sr", sigma=_sigma(2), kappa=np.zeros(8))


def _served(directory):
    """What readers of the store get: the newest snapshot, overall and per
    kind.  (A crash between the publish and its prune leaves one older
    version on disk that nothing serves; the next publish prunes it.)"""
    store = SnapshotStore(directory)
    return tuple(
        (snap.version, snap.sigma.tobytes())
        for snap in (store.latest(), store.latest("sr"), store.latest("baseline"))
    )


def _live_store(directory):
    ShardedGraphStore.from_pagegraph(_graph(1, 60, 400), directory, block_size=16)


def _reshard(directory):
    ShardedGraphStore.from_pagegraph(_graph(2, 60, 400), directory, block_size=16)


def _graph_in_store(directory):
    try:
        matrix = ShardedGraphStore.open(directory).materialize()
    except GraphError:  # no manifest: no store
        return None
    return matrix.indptr.tobytes(), matrix.indices.tobytes(), matrix.data.tobytes()


def _checkpoint_before(directory):
    SolveCheckpointer(directory).save("solve", _sigma(3), 10, 1e-3)


def _save_checkpoint(directory):
    SolveCheckpointer(directory).save("solve", _sigma(4), 20, 1e-4)


def _resumed_from(directory):
    state = SolveCheckpointer(directory, resume=True).load("solve")
    return state.iteration, state.x.tobytes()


@pytest.mark.parametrize(
    "before, write, state",
    [
        (_snapshots_before, _publish_and_prune, _served),
        (_live_store, _reshard, _graph_in_store),
        (lambda directory: None, _reshard, _graph_in_store),
        (_checkpoint_before, _save_checkpoint, _resumed_from),
    ],
    ids=["snapshot-publish", "store-reshard", "store-create", "checkpoint-save"],
)
def test_crash_at_any_file_operation_leaves_old_or_new_state(
    before, write, state, tmp_path
):
    def run(crash_at, directory):
        before(directory)
        fake_os = _CrashingOs(crash_at)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(container, "os", fake_os)
            if crash_at is None:
                write(directory)
            else:
                with pytest.raises(SimulatedCrash):
                    write(directory)
        return fake_os.ops

    before(tmp_path / "old")
    old = state(tmp_path / "old")
    ops = run(None, tmp_path / "new")
    new = state(tmp_path / "new")
    assert old != new
    assert {"create", "write", "fsync", "replace", "fsync_dir"} <= set(ops)
    for k, op in enumerate(ops):
        directory = tmp_path / f"crash-{k}"
        run(k, directory)
        assert state(directory) in (old, new), f"crash at operation {k} ({op})"
