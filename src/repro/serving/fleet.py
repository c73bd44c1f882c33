"""Replicated serving fleet: one publisher, N read-only replica processes.

The single-process :class:`~repro.serving.RankingService` couples the
updater (solve + publish) and the read path in one interpreter; this
module splits them across processes so reads scale horizontally while
exactly one process keeps writing:

* the **publisher** is an ordinary :class:`RankingService` — it solves,
  publishes to the :class:`~repro.serving.snapshot.SnapshotStore`, and
  never answers fleet reads;
* each **replica** (:class:`ReplicaService`, run by :func:`_replica_main`
  in a ``spawn``-ed process) polls the same store directory, adopting
  each new snapshot through a :class:`SnapshotFollower` — seq-guarded
  (an older version is never adopted after a newer one) and
  digest-verified (adoption reuses :meth:`SnapshotStore.load`, so a torn
  or tampered publish is skipped, never served) — and answers
  ``score`` / ``top_k`` / ``percentile`` reads over a newline-delimited
  JSON TCP protocol;
* the :class:`ServingFleet` orchestrator owns the topology: it spawns
  replicas, fronts them with the asyncio
  :class:`~repro.serving.frontend.FrontDoor`, rebinds the publisher's
  telemetry ``/health`` to the fan-out view, and can kill / restart
  replicas mid-traffic (the chaos lever ``benchmarks/bench_fleet.py``
  pulls).

See ``docs/architecture.md`` ("Replicated serving fleet") for the
topology diagram and the adoption/eviction state machines.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from ..config import FleetParams, SLOParams
from ..errors import FleetError, NodeIndexError, ServingError
from ..logging_utils import get_logger
from ..observability.metrics import get_registry
from ..resilience.faults import FaultPlan, FaultyStore, SocketFaultInjector
from .frontend import FleetClient, FrontDoor
from .service import RankingService
from .snapshot import RankingSnapshot, SnapshotStore

__all__ = [
    "SnapshotFollower",
    "ReplicaService",
    "ReplicaHandle",
    "ServingFleet",
    "replica_request",
]

_logger = get_logger(__name__)


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8") + b"\n"


def replica_request(
    address: tuple[str, int], payload: dict, *, timeout: float = 10.0
) -> dict:
    """One request/response round trip straight to a replica socket.

    Bypasses the front door — used for graceful shutdown, for the
    bench's σ-identity audit, and anywhere a *specific* replica must be
    interrogated rather than whichever one the balancer picks.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(_encode(payload))
        with sock.makefile("rb") as rfile:
            line = rfile.readline()
    if not line:
        raise FleetError(f"replica at {address} closed the connection")
    return json.loads(line)


# ----------------------------------------------------------------------
# Snapshot adoption
# ----------------------------------------------------------------------
class SnapshotFollower:
    """Seq-guarded, digest-verified snapshot adoption for one replica.

    Wraps a :class:`SnapshotStore` and tracks the single snapshot the
    replica currently serves.  :meth:`poll_once` asks the store for its
    newest *healthy* snapshot (``load`` re-verifies the payload digest,
    so corruption can never be adopted) and :meth:`adopt` applies the
    monotonicity guard: a version at or below the current one is
    refused.  That ordering guarantee is what makes replica reads
    coherent — after the store prunes, or when a torn write makes
    ``latest()`` land on an older file, the replica keeps serving the
    newer σ it already holds rather than travelling back in time.
    """

    def __init__(
        self,
        store: SnapshotStore,
        *,
        kind: str = "sr",
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.store = store
        self.kind = kind
        self._clock = clock
        self._lock = threading.Lock()
        self._current: RankingSnapshot | None = None
        self._adoptions = 0
        self._rejected_stale = 0
        registry = get_registry()
        self._adoptions_total = registry.counter(
            "repro_fleet_adoptions_total",
            "Snapshots adopted by this process's follower(s)",
        )
        # One labeled family for every way an adoption candidate can be
        # refused: "stale" is counted here (the follower's monotonicity
        # guard); store-level reasons ("unreadable", "digest",
        # "format_version") are counted by the store itself under
        # repro_snapshot_rejects_total — distinct labels per kind.
        self._rejects_total = registry.counter(
            "repro_fleet_adoption_rejects_total",
            "Adoption candidates refused by the follower, by reason",
            labelnames=("reason",),
        )

    @property
    def current(self) -> RankingSnapshot | None:
        """The snapshot reads are answered from (``None`` before first adopt)."""
        with self._lock:
            return self._current

    @property
    def adoptions(self) -> int:
        """How many snapshots have been adopted since construction."""
        with self._lock:
            return self._adoptions

    @property
    def rejected_stale(self) -> int:
        """Adoption attempts refused because they were not newer."""
        with self._lock:
            return self._rejected_stale

    def adopt(self, snapshot: RankingSnapshot) -> bool:
        """Adopt ``snapshot`` iff it is strictly newer than the current one."""
        with self._lock:
            if (
                self._current is not None
                and snapshot.version <= self._current.version
            ):
                if snapshot.version < self._current.version:
                    self._rejected_stale += 1
                    self._rejects_total.labels(reason="stale").inc()
                return False
            self._current = snapshot
            self._adoptions += 1
            self._adoptions_total.inc()
        _logger.info(
            "adopted snapshot %d (%s, n=%d)",
            snapshot.version,
            snapshot.kind,
            snapshot.n,
        )
        return True

    def poll_once(self) -> bool:
        """Check the store for a newer healthy snapshot; adopt if found."""
        latest = self.store.latest(kind=self.kind)
        if latest is None:
            return False
        return self.adopt(latest)

    def percentiles(self, snapshot: RankingSnapshot | None = None) -> np.ndarray:
        """Cached percentile vector of ``snapshot`` (default: the current one).

        A read passes the snapshot it already labelled its response with,
        so an adoption landing mid-read cannot hand it another version's
        table.  Tables are built under the lock, one at a time.
        """
        with self._lock:
            if snapshot is None:
                snapshot = self._current
            if snapshot is None:
                raise ServingError(
                    "no snapshot adopted yet; the publisher has not "
                    "published (or the replica has not polled) a healthy "
                    "snapshot"
                )
            return snapshot.result().percentiles()

    def snapshot_for_read(self) -> RankingSnapshot:
        """The current snapshot, or a :class:`ServingError` when empty."""
        snapshot = self.current
        if snapshot is None:
            raise ServingError(
                "no snapshot adopted yet; the publisher has not published "
                "(or the replica has not polled) a healthy snapshot"
            )
        return snapshot


# ----------------------------------------------------------------------
# Replica process
# ----------------------------------------------------------------------
class _ReplicaTCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    replica: "ReplicaService"


#: Ops never subjected to socket fault injection: the control plane must
#: stay reachable so a chaos phase can always be switched off again.
_CHAOS_EXEMPT_OPS: tuple[str, ...] = ("chaos", "stop")


class _ReplicaHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # noqa: D102 - socketserver contract
        replica = self.server.replica  # type: ignore[attr-defined]
        while True:
            line = self.rfile.readline()
            if not line:
                return
            try:
                message = json.loads(line)
            except (ValueError, UnicodeDecodeError) as exc:
                self.wfile.write(
                    _encode(
                        {
                            "ok": False,
                            "error": "FleetError",
                            "detail": f"malformed request: {exc}",
                        }
                    )
                )
                continue
            response = replica.handle(message)
            op = message.get("op")
            if op in _CHAOS_EXEMPT_OPS:
                self.wfile.write(_encode(response))
            elif not replica.injector.send(
                self.wfile, _encode(response), self.connection
            ):
                # An injected reset/torn frame cut this client off —
                # drop the connection like the fault it is simulating.
                return
            if op == "stop":
                # shutdown() blocks until serve_forever returns, and we
                # are running *inside* a handler thread — hand it off.
                threading.Thread(
                    target=self.server.shutdown, daemon=True
                ).start()
                return


class ReplicaService:
    """A read-only ranking replica: adopt snapshots, answer reads.

    Holds no solver and accepts no writes — its entire state is the
    snapshot its :class:`SnapshotFollower` adopted from the shared
    store.  ``handle`` is a pure request→response map (unit-testable
    in-process); :meth:`bind` + :meth:`serve_forever` put it behind a
    threading TCP server speaking newline-delimited JSON.

    Supported ops: ``score`` / ``percentile`` (batched ``ids``),
    ``top_k``, ``health``, ``sigma`` (the full served vector, for
    identity audits), ``chaos`` (configure/toggle the replica's fault
    plan — the control lever ``bench_chaos.py`` pulls), and ``stop``.
    """

    def __init__(
        self,
        store: SnapshotStore | str | Path,
        *,
        replica_id: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.05,
        clock: Callable[[], float] = time.time,
        chaos: FaultPlan | None = None,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = SnapshotStore(store)
        self.replica_id = int(replica_id)
        # Every replica carries an (initially empty) fault plan wrapping
        # both its socket layer and its view of the snapshot store, so
        # gray failures can be switched on over the wire at any moment.
        self.chaos = chaos if chaos is not None else FaultPlan(seed=replica_id)
        self.injector = SocketFaultInjector(self.chaos)
        self.follower = SnapshotFollower(
            FaultyStore(store, self.chaos), clock=clock
        )
        self._host = host
        self._port = int(port)
        self._poll_interval = float(poll_interval)
        self._clock = clock
        self._started_at = clock()
        self._counters_lock = threading.Lock()
        self._reads_ok = 0
        self._reads_error = 0
        self._server: _ReplicaTCPServer | None = None
        self._poll_stop = threading.Event()
        self._poll_thread: threading.Thread | None = None

    # -- request handling ------------------------------------------------
    def handle(self, message: dict) -> dict:
        """Answer one decoded request (never raises)."""
        op = message.get("op")
        try:
            if op == "score":
                return self._values(message, what="score")
            if op == "percentile":
                return self._values(message, what="percentile")
            if op == "top_k":
                return self._top_k(message)
            if op == "health":
                return {"ok": True, **self.health()}
            if op == "sigma":
                snapshot = self.follower.snapshot_for_read()
                return {
                    "ok": True,
                    "version": snapshot.version,
                    "sigma": snapshot.result().scores.tolist(),
                }
            if op == "chaos":
                config = {
                    key: value
                    for key, value in message.items()
                    if key != "op"
                }
                return {
                    "ok": True,
                    "replica": self.replica_id,
                    "chaos": self.chaos.apply_config(config),
                }
            if op == "stop":
                return {"ok": True, "stopping": True}
            raise FleetError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            with self._counters_lock:
                self._reads_error += 1
            return {
                "ok": False,
                "error": type(exc).__name__,
                "detail": str(exc),
                "replica": self.replica_id,
            }

    def _meta(self, snapshot: RankingSnapshot) -> dict:
        return {
            "replica": self.replica_id,
            "version": snapshot.version,
            "kind": snapshot.kind,
            "age": snapshot.age(self._clock()),
        }

    def _checked_ids(self, message: dict, n: int) -> np.ndarray:
        ids = np.asarray(message.get("ids", ()), dtype=np.int64).ravel()
        bad = ids[(ids < 0) | (ids >= n)]
        if bad.size:
            raise NodeIndexError(int(bad[0]), n)
        return ids

    def _values(self, message: dict, *, what: str) -> dict:
        snapshot = self.follower.snapshot_for_read()
        ids = self._checked_ids(message, snapshot.n)
        if what == "score":
            values = snapshot.result().scores[ids]
        else:
            values = self.follower.percentiles(snapshot)[ids]
        with self._counters_lock:
            self._reads_ok += int(ids.size)
        return {
            "ok": True,
            "values": values.tolist(),
            **self._meta(snapshot),
        }

    def _top_k(self, message: dict) -> dict:
        snapshot = self.follower.snapshot_for_read()
        ids = snapshot.result().top(int(message.get("k", 0)))
        with self._counters_lock:
            self._reads_ok += int(ids.size)
        return {"ok": True, "ids": ids.tolist(), **self._meta(snapshot)}

    def health(self) -> dict:
        """Replica-local health document (JSON-ready)."""
        snapshot = self.follower.current
        with self._counters_lock:
            reads_ok, reads_error = self._reads_ok, self._reads_error
        return {
            "replica": self.replica_id,
            "pid": os.getpid(),
            "ready": snapshot is not None,
            "snapshot_version": None if snapshot is None else snapshot.version,
            "snapshot_kind": None if snapshot is None else snapshot.kind,
            "snapshot_age_seconds": (
                None if snapshot is None else snapshot.age(self._clock())
            ),
            "n_sources": None if snapshot is None else snapshot.n,
            "adoptions": self.follower.adoptions,
            "rejected_stale": self.follower.rejected_stale,
            "reads_ok": reads_ok,
            "reads_error": reads_error,
            "uptime_seconds": max(self._clock() - self._started_at, 0.0),
            "chaos": self.chaos.describe(),
        }

    # -- serving ----------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)``; raises before :meth:`bind`."""
        if self._server is None:
            raise FleetError(
                "replica is not bound yet", replica=self.replica_id
            )
        return self._server.server_address[:2]

    def bind(self) -> "ReplicaService":
        """Bind the TCP listener and start the snapshot poll thread."""
        if self._server is not None:
            return self
        self._server = _ReplicaTCPServer(
            (self._host, self._port), _ReplicaHandler, bind_and_activate=True
        )
        self._server.replica = self
        self._poll_thread = threading.Thread(
            target=self._poll_loop,
            name=f"repro-replica-{self.replica_id}-poll",
            daemon=True,
        )
        self._poll_thread.start()
        return self

    def _poll_loop(self) -> None:
        while not self._poll_stop.is_set():
            try:
                self.follower.poll_once()
            except Exception:  # noqa: BLE001 - polling must survive
                _logger.exception(
                    "replica %d snapshot poll failed", self.replica_id
                )
            self._poll_stop.wait(self._poll_interval)

    def serve_forever(self) -> None:
        """Block answering reads until ``stop`` arrives (or :meth:`close`)."""
        if self._server is None:
            self.bind()
        assert self._server is not None
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def close(self) -> None:
        """Tear the listener and poll thread down (idempotent)."""
        self._poll_stop.set()
        server, self._server = self._server, None
        if server is not None:
            server.server_close()
        if self._poll_thread is not None:
            self._poll_thread.join(timeout=5)
            self._poll_thread = None


def _replica_main(
    conn,
    store_dir: str,
    replica_id: int,
    host: str,
    poll_interval: float,
    ready_requires_snapshot: bool,
    ready_timeout: float,
) -> None:
    """Entry point of a spawned replica process.

    Reports ``("ready", host, port)`` (or ``("error", detail)``) back on
    ``conn`` once the socket is bound and — when demanded — a first
    snapshot is adopted, then serves until told to stop.
    """
    replica = ReplicaService(
        Path(store_dir),
        replica_id=replica_id,
        host=host,
        poll_interval=poll_interval,
    )
    try:
        replica.bind()
        if ready_requires_snapshot:
            deadline = time.monotonic() + ready_timeout
            while replica.follower.current is None:
                if time.monotonic() >= deadline:
                    raise FleetError(
                        f"replica {replica_id} found no healthy snapshot in "
                        f"{store_dir} within {ready_timeout:.1f}s",
                        replica=replica_id,
                    )
                time.sleep(min(poll_interval, 0.05))
        conn.send(("ready",) + tuple(replica.address))
    except Exception as exc:  # noqa: BLE001 - must report, not die silent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        replica.close()
        return
    conn.close()
    replica.serve_forever()


class ReplicaHandle:
    """Parent-side handle on one spawned replica process."""

    def __init__(
        self,
        *,
        replica_id: int,
        process: multiprocessing.process.BaseProcess,
        address: tuple[str, int],
        store_dir: Path,
    ) -> None:
        self.replica_id = int(replica_id)
        self.process = process
        self.address = address
        self.store_dir = store_dir

    @classmethod
    def spawn(
        cls, store_dir: str | Path, replica_id: int, params: FleetParams
    ) -> "ReplicaHandle":
        """Spawn one replica and wait for it to report ready.

        Uses the ``spawn`` start method: the publisher process runs
        updater/telemetry threads, which ``fork`` would duplicate into
        a wedged child.
        """
        store_dir = Path(store_dir)
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_replica_main,
            args=(
                child_conn,
                str(store_dir),
                int(replica_id),
                params.host,
                params.replica_poll_seconds,
                params.ready_requires_snapshot,
                params.spawn_timeout_seconds,
            ),
            name=f"repro-replica-{replica_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        # The child's own readiness deadline (spawn_timeout_seconds) only
        # starts ticking after its interpreter finishes importing; wait
        # past it so a child-side "no healthy snapshot" error reaches us
        # instead of racing our poll.
        if not parent_conn.poll(params.spawn_timeout_seconds + 30.0):
            process.terminate()
            process.join(5)
            raise FleetError(
                f"replica {replica_id} did not report ready within "
                f"{params.spawn_timeout_seconds:.1f}s",
                replica=replica_id,
            )
        try:
            message = parent_conn.recv()
        except EOFError:
            process.join(5)
            raise FleetError(
                f"replica {replica_id} died before reporting ready "
                f"(exitcode {process.exitcode})",
                replica=replica_id,
            ) from None
        finally:
            parent_conn.close()
        if message[0] != "ready":
            process.join(5)
            raise FleetError(
                f"replica {replica_id} failed to start: {message[1]}",
                replica=replica_id,
            )
        handle = cls(
            replica_id=replica_id,
            process=process,
            address=(message[1], int(message[2])),
            store_dir=store_dir,
        )
        _logger.info(
            "replica %d ready at %s:%d (pid %d)",
            replica_id,
            *handle.address,
            process.pid,
        )
        return handle

    def alive(self) -> bool:
        """Is the replica process still running?"""
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the replica — the chaos lever; no goodbye handshake."""
        self.process.kill()
        self.process.join(10)

    def terminate(self, *, timeout: float = 5.0) -> None:
        """Stop the replica gracefully, escalating to SIGTERM/SIGKILL."""
        if self.alive():
            try:
                replica_request(self.address, {"op": "stop"}, timeout=timeout)
            except Exception:  # noqa: BLE001 - already gone is fine
                pass
            self.process.join(timeout)
        if self.alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout)


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
class ServingFleet:
    """One publisher, N replicas, one front door — the serving topology.

    Parameters
    ----------
    service:
        The publisher :class:`RankingService`.  Its store directory is
        what replicas follow; bootstrap it (or point it at a non-empty
        store) before :meth:`start` when
        ``params.ready_requires_snapshot`` is on.
    params:
        Fleet topology and protocol knobs (:class:`FleetParams`).

    ``start`` spawns the replicas, raises the front door, starts the
    publisher's background updater, and — when the publisher exposes a
    telemetry endpoint — rebinds its ``/health`` to the fleet fan-out
    view (publisher + front door + per-replica state).
    """

    def __init__(
        self,
        service: RankingService,
        params: FleetParams | None = None,
        *,
        slo: SLOParams | None = None,
    ) -> None:
        self.service = service
        self.params = params or FleetParams()
        self.slo = slo
        self.replicas: dict[int, ReplicaHandle] = {}
        self.frontdoor: FrontDoor | None = None
        self._prev_health_fn: Callable[[], dict] | None = None
        self._started = False

    # -- lifecycle --------------------------------------------------------
    def start(self) -> "ServingFleet":
        """Spawn replicas, raise the front door, start the updater."""
        if self._started:
            return self
        store_dir = self.service.store.directory
        try:
            for replica_id in range(self.params.replicas):
                self.replicas[replica_id] = ReplicaHandle.spawn(
                    store_dir, replica_id, self.params
                )
            self.frontdoor = FrontDoor(
                {rid: h.address for rid, h in self.replicas.items()},
                self.params,
                slo=self.slo,
            ).start()
        except Exception:
            self._teardown_replicas()
            raise
        if self.service.telemetry is not None:
            self._prev_health_fn = self.service.telemetry.health_fn
            self.service.telemetry.health_fn = self.health
        self.service.start()
        self._started = True
        _logger.info(
            "fleet up: %d replicas behind %s:%d",
            len(self.replicas),
            *self.frontdoor.address,
        )
        return self

    def stop(self) -> None:
        """Stop updater, front door, and every replica (idempotent)."""
        if self.service.telemetry is not None and self._prev_health_fn is not None:
            self.service.telemetry.health_fn = self._prev_health_fn
            self._prev_health_fn = None
        self.service.stop()
        if self.frontdoor is not None:
            self.frontdoor.stop()
            self.frontdoor = None
        self._teardown_replicas()
        self._started = False

    def _teardown_replicas(self) -> None:
        for handle in self.replicas.values():
            try:
                handle.terminate()
            except Exception:  # noqa: BLE001 - teardown keeps going
                _logger.exception(
                    "replica %d did not stop cleanly", handle.replica_id
                )
        self.replicas.clear()

    def __enter__(self) -> "ServingFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- chaos levers -------------------------------------------------------
    def kill_replica(self, replica_id: int) -> None:
        """SIGKILL one replica; the front door evicts it on first error."""
        handle = self._handle(replica_id)
        handle.kill()
        _logger.info("killed replica %d (pid %s)", replica_id, handle.process.pid)

    def restart_replica(self, replica_id: int) -> ReplicaHandle:
        """Spawn a fresh process for ``replica_id`` and re-route traffic.

        The new replica binds a new port; the front door's routing table
        is updated in place and the replica returns to ACTIVE rotation
        immediately (no probe wait).
        """
        old = self._handle(replica_id)
        if old.alive():
            old.terminate()
        handle = ReplicaHandle.spawn(old.store_dir, replica_id, self.params)
        self.replicas[replica_id] = handle
        if self.frontdoor is not None:
            self.frontdoor.update_replica(replica_id, handle.address)
        return handle

    def set_replica_chaos(self, replica_id: int, **config) -> dict:
        """Configure one replica's fault plan over its own socket.

        Keyword form of the ``chaos`` op:
        ``set_replica_chaos(0, rules={...}, activate=[...],
        deactivate=[...], reset=True)``.  Returns the replica's plan
        description after the change.  Bypasses the front door — chaos
        control must reach a replica even while it is evicted.
        """
        handle = self._handle(replica_id)
        response = replica_request(
            handle.address,
            {"op": "chaos", **config},
            timeout=self.params.request_timeout_seconds,
        )
        if not response.get("ok"):
            raise FleetError(
                f"chaos config rejected by replica {replica_id}: "
                f"{response.get('detail')}",
                replica=replica_id,
            )
        return response["chaos"]

    def _handle(self, replica_id: int) -> ReplicaHandle:
        try:
            return self.replicas[replica_id]
        except KeyError:
            raise FleetError(
                f"no replica {replica_id} in this fleet "
                f"(have {sorted(self.replicas)})",
                replica=replica_id,
            ) from None

    # -- views ---------------------------------------------------------------
    def client(self) -> FleetClient:
        """A blocking client connected to the front door."""
        if self.frontdoor is None:
            raise FleetError("fleet is not started")
        return FleetClient(
            self.frontdoor.address,
            timeout=self.params.request_timeout_seconds + 5.0,
        )

    def replica_addresses(self) -> Mapping[int, tuple[str, int]]:
        """Current replica routing table (for direct interrogation)."""
        return {rid: h.address for rid, h in self.replicas.items()}

    def health(self) -> dict:
        """Fleet-wide health: publisher + front door + per-replica fan-out.

        This is what the publisher's telemetry ``/health`` serves while
        the fleet runs.
        """
        payload: dict = {"fleet": True, "publisher": self.service.health()}
        if self.frontdoor is not None:
            payload["frontend"] = self.frontdoor.stats()
            payload["replicas"] = self.frontdoor.health()
        payload["replica_processes"] = {
            str(rid): {
                "alive": handle.alive(),
                "pid": handle.process.pid,
                "address": list(handle.address),
            }
            for rid, handle in sorted(self.replicas.items())
        }
        return payload
