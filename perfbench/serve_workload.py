"""The ``serve`` workload: a 2-replica ``ServingFleet`` under a fixed read mix.

Two processes of the benchmark's own:

* the **host**, a spawned child, sets up ``SETUP_REPEATS`` times (generate
  the source store, solve σ for two κ draws, publish one, start the fleet
  up to the replicas' first adoption) and keeps the last fleet running.
  During open-loop segments its publisher thread calls
  ``SnapshotStore.publish`` every ``PUBLISH_EVERY`` seconds with the other
  σ — the call the updater makes after a solve — and then reads one
  percentile straight from each replica until it answers from the new
  version: that wait is the adoption lag.  After the timed part it stops
  the fleet and solves each σ ``END_SOLVE_REPEATS`` times more;
* the **generator**, this process, drives the front door from one asyncio
  thread over ``CONNECTIONS`` connections: a warm-up, then ``SEGMENTS``
  pairs of an open loop at ``RATE`` requests per second (with publishes)
  and a closed loop (without).  Open-loop latency runs from each request's
  due time to its response, so a stall also delays every request queued
  behind it.

Every response is checked, after its phase, against the σ, percentiles and
top-k order of the version it names.  Time stamps that cross the process
boundary use ``time.monotonic()``, which is system-wide on Linux.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import multiprocessing
import os
import signal
import socket
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import common
from .checks import SIGMA_ATOL, ResponseChecker, expected_for, sigma_error
from .common import TOP_K, read_schedule
from .metrics import END_TO_END, PER_LAYER, table
from .spans import Recorder, program_probes

SERVE_SOURCES = 300_000
THROTTLED = 0.028
REPLICAS = 2
SETUP_REPEATS = 3
#: After the timed part the host stops the fleet and solves each σ this many
#: times more, so ``rank_s`` samples the host's speed at both ends of the run.
END_SOLVE_REPEATS = 2
CONNECTIONS = 2
RATE = 50.0
#: The timed part alternates open-loop and closed-loop segments, so both
#: loops sample the same stretch of the host's (shared, drifting) speed.
SEGMENTS = 4
OPEN_SHARE = 0.6
PUBLISH_EVERY = 1.0
#: read_p50 is taken per window of this many seconds of due times.
WINDOW_S = 1.0
WARMUP_S = 2.0
IDLE_S = 2.0
#: Adoption probes: one percentile read straight to each replica every
#: ``PROBE_EVERY`` seconds after a publish, until it answers from the new σ.
PROBE_EVERY = 0.005
ADOPT_TIMEOUT_S = 5.0
CLIENT_TIMEOUT_S = 10.0
MICRO_REPEATS = 30


# ----------------------------------------------------------------------
# Host process: set-up, fleet, publisher
# ----------------------------------------------------------------------
class Publish(NamedTuple):
    """One publish of the host's publisher and its adoption by each replica."""

    version: int
    returned: float  # time.monotonic() when publish returned
    traced: bool
    lags: list  # seconds until each replica answered from ``version``; None if never
    checked: bool  # every adoption probe's answer passed its check


def _draw_kappa(rng: np.random.Generator, n: int) -> np.ndarray:
    kappa = np.zeros(n)
    kappa[rng.choice(n, round(THROTTLED * n), replace=False)] = 1.0
    return kappa


class _LineClient:
    """One persistent newline-JSON connection straight to a replica."""

    def __init__(self, address: tuple[str, int]) -> None:
        self._sock = socket.create_connection(address, timeout=ADOPT_TIMEOUT_S)
        self._rfile = self._sock.makefile("rb")

    def request(self, payload: dict) -> dict:
        self._sock.sendall(json.dumps(payload).encode() + b"\n")
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("replica closed the probe connection")
        return json.loads(line)

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()


class _Host:
    """Set-up plus the running fleet; answers the generator's commands."""

    def __init__(self, seed: int, trace: bool) -> None:
        self.seed = seed
        self.recorder = Recorder() if trace else None
        self.probes = program_probes(self.recorder) if trace else None
        self.fleet = None
        self.directories: list[Path] = []
        self.publish_log: list[Publish] = []
        self._published = 1
        self._probe_lines: dict[int, _LineClient] = {}
        self._stop_publishing = threading.Event()
        self._publisher: threading.Thread | None = None

    def set_up(self) -> dict:
        from repro.config import FleetParams
        from repro.datasets.synthetic import SyntheticSourceConfig, generate_source_store
        from repro.ranking.srsourcerank import spam_resilient_sourcerank
        from repro.serving import RankingService, ServingFleet
        from repro.sources.sourcegraph import SourceGraph

        store_seed, kappa_seed = common.derive_seeds(self.seed, 2)
        setup_times, solve_times, sigmas = [], [], []
        for _ in range(SETUP_REPEATS):
            if self.fleet is not None:
                self.fleet.stop()
                self.fleet = None
                common.remove_dir(self.directories.pop())
            directory = common.fresh_dir("serve-")
            self.directories.append(directory)
            start = time.perf_counter()
            store = generate_source_store(
                SyntheticSourceConfig(n_sources=SERVE_SOURCES, seed=store_seed),
                directory / "graph",
            )
            source_graph = SourceGraph(store.materialize())
            rng = np.random.default_rng(kappa_seed)
            kappas = [_draw_kappa(rng, SERVE_SOURCES) for _ in range(2)]
            solved = []
            for kappa in kappas:
                begin = time.perf_counter()
                result = spam_resilient_sourcerank(source_graph, kappa, full_throttle="dangling")
                solve_times.append(time.perf_counter() - begin)
                solved.append(np.array(result.scores))
            service = RankingService(directory / "snapshots")
            service.store.publish(kind="sr", sigma=solved[0], kappa=kappas[0])
            self.fleet = ServingFleet(service, FleetParams(replicas=REPLICAS)).start()
            setup_times.append(time.perf_counter() - start)
            sigmas.append(solved)
        self.sigmas, self.kappas = sigmas[-1], kappas
        self.source_graph = source_graph
        self.expected = [expected_for(sigma, TOP_K) for sigma in self.sigmas]
        self.checker = ResponseChecker(lambda v: self.expected[(v + 1) % 2])
        return {
            "setup_times": setup_times,
            "solve_times": solve_times,
            "repeats_identical": all(
                np.array_equal(a, b) for solved in sigmas for a, b in zip(solved, sigmas[-1])
            ),
            "address": tuple(self.fleet.frontdoor.address),
            "replica_pids": [h.process.pid for h in self.fleet.replicas.values()],
            "sigmas": self.sigmas,
            "shape": {
                "sources": int(store.n_sources),
                "source_edges": int(store.n_edges),
                "blocks": int(store.n_blocks),
                "snapshot_n": SERVE_SOURCES,
                "replicas": REPLICAS,
            },
        }

    def sigma_errors(self) -> list[float]:
        """Each set-up σ against the power solve of the explicit ``T''``."""
        from repro.config import RankingParams
        from repro.linalg.operator import CsrOperator, ThrottledOperator
        from repro.linalg.registry import solver_registry

        errors = []
        for sigma, kappa in zip(self.sigmas, self.kappas):
            explicit = ThrottledOperator(
                CsrOperator(self.source_graph.matrix), kappa, full_throttle="dangling"
            ).materialize()
            reference = solver_registry.solve(explicit, RankingParams(), solver="power").scores
            errors.append(sigma_error(sigma, reference))
        return errors

    def end_solves(self) -> dict:
        """Stop the fleet, then solve each σ again; each must equal its set-up σ."""
        from repro.ranking.srsourcerank import spam_resilient_sourcerank

        self.fleet.stop()
        self.fleet = None
        times, errors = [], []
        for _ in range(END_SOLVE_REPEATS):
            for sigma, kappa in zip(self.sigmas, self.kappas):
                begin = time.perf_counter()
                result = spam_resilient_sourcerank(self.source_graph, kappa, full_throttle="dangling")
                times.append(time.perf_counter() - begin)
                errors.append(sigma_error(np.array(result.scores), sigma))
        return {"solve_times": times, "errors": errors}

    # -- publisher ---------------------------------------------------------
    def _probe_adoption(self, rid: int, version: int, returned: float, out: dict) -> None:
        """Read one percentile straight from a replica until it answers from ``version``."""
        request = {"op": "percentile", "ids": [int(version * 7919 % SERVE_SOURCES)]}
        while time.monotonic() - returned < ADOPT_TIMEOUT_S:
            response = self._probe_lines[rid].request(request)
            got = response.get("version")
            if response.get("ok") and isinstance(got, int) and got >= version:
                out[rid] = time.monotonic() - returned
                out[f"ok{rid}"] = self.checker.check(request, response, min_version=version) is None
                return
            time.sleep(PROBE_EVERY)

    def _publish_loop(self, first_at: float, count: int, traced: bool) -> None:
        store = self.fleet.service.store
        for index in range(count):
            if self._stop_publishing.wait(max(first_at + index * PUBLISH_EVERY - time.monotonic(), 0.0)):
                return
            # Version 1 is σ_A, then σ_B, σ_A, ...: version v serves σ[(v + 1) % 2].
            which = self._published % 2
            with self.probes.installed() if traced else nullcontext():
                snapshot = store.publish(kind="sr", sigma=self.sigmas[which], kappa=self.kappas[which])
            returned = time.monotonic()
            self._published += 1
            adoption: dict = {}
            probes = [
                threading.Thread(target=self._probe_adoption, args=(rid, snapshot.version, returned, adoption))
                for rid in self.fleet.replicas
            ]
            for thread in probes:
                thread.start()
            for thread in probes:
                thread.join()
            lags = [adoption.get(rid) for rid in self.fleet.replicas]
            checked = all(adoption.get(f"ok{rid}", False) for rid in self.fleet.replicas)
            self.publish_log.append(Publish(snapshot.version, returned, traced, lags, checked))

    def start_publishing(self, first_at: float, count: int, traced: bool) -> None:
        if not self._probe_lines:
            self._probe_lines = {
                rid: _LineClient(address) for rid, address in self.fleet.replica_addresses().items()
            }
        self._stop_publishing.clear()
        self._publisher = threading.Thread(
            target=self._publish_loop,
            args=(first_at, count, traced and self.probes is not None),
            daemon=True,
        )
        self._publisher.start()

    def stop_publishing(self) -> list:
        self._stop_publishing.set()
        if self._publisher is not None:
            self._publisher.join(60)
            self._publisher = None
        return self.publish_log

    # -- end-of-run checks and in-process probes ---------------------------
    def final_sigmas(self) -> dict:
        """Each replica's served σ against the last published σ."""
        from repro.serving import replica_request

        last_version = self._published
        expected = self.sigmas[(last_version + 1) % 2]
        out = {}
        for rid, address in self.fleet.replica_addresses().items():
            response = replica_request(address, {"op": "sigma"})
            ok = response.get("ok") and response.get("version") == last_version
            error = sigma_error(np.asarray(response.get("sigma", ())), expected) if ok else float("inf")
            out[rid] = error
        return out

    def microbench(self) -> dict:
        """In-process costs of one replica poll and of ``ReplicaService.handle``."""
        from repro.serving import ReplicaService, SnapshotStore

        store = SnapshotStore(self.fleet.service.store.directory)
        rng = np.random.default_rng(0)
        first = len(self.recorder.spans)
        with self.probes.installed():
            for _ in range(MICRO_REPEATS):
                store.latest(kind="sr")
            replica = ReplicaService(store)
            replica.follower.poll_once()
            for op, request in (
                ("score", lambda: {"op": "score", "ids": rng.integers(SERVE_SOURCES, size=100).tolist()}),
                ("percentile", lambda: {"op": "percentile", "ids": rng.integers(SERVE_SOURCES, size=100).tolist()}),
                ("top_k", lambda: {"op": "top_k", "k": TOP_K}),
            ):
                for _ in range(MICRO_REPEATS):
                    replica.handle(request())
        latest = [s.duration for s in self.recorder.spans[first:] if s.name == "snapshot.latest"]
        handle: dict[str, list[float]] = {}
        for span in self.recorder.spans[first:]:
            if span.name == "fleet.handle" and span.meta["op"] in ("score", "percentile", "top_k"):
                handle.setdefault(span.meta["op"], []).append(span.duration * 1e3)

        # First percentile after an adoption: the replica builds its table then.
        directory = common.fresh_dir("first-")
        self.directories.append(directory)
        scratch = SnapshotStore(directory)
        replica = ReplicaService(scratch)
        firsts = []
        for index in range(5):
            scratch.publish(kind="sr", sigma=self.sigmas[index % 2], kappa=self.kappas[index % 2])
            replica.follower.poll_once()
            begin = time.perf_counter()
            replica.handle({"op": "percentile", "ids": rng.integers(SERVE_SOURCES, size=100).tolist()})
            firsts.append((time.perf_counter() - begin) * 1e3)
        publish = [s.duration for s in self.recorder.spans if s.name == "snapshot.publish"]
        return {
            "snapshot.latest_s": common.median(latest),
            "snapshot.publish_s": common.median(publish),
            "fleet.first_percentile_ms": common.median(firsts),
            **{f"fleet.handle_ms.{op}": common.median(v) for op, v in handle.items()},
            "span_bytes": self.recorder.nbytes(),
        }

    def close(self) -> None:
        self.stop_publishing()
        for line in self._probe_lines.values():
            line.close()
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        for directory in self.directories:
            common.remove_dir(directory)


def _host_main(seed: int, trace: bool, conn) -> None:
    """Entry point of the spawned host: set up, then serve commands."""
    host = _Host(seed, trace)
    try:
        try:
            ready = host.set_up()
        except Exception:  # noqa: BLE001 - reported to the generator
            conn.send(("error", traceback.format_exc()))
            return
        conn.send(("ready", ready))
        while True:
            command, *args = conn.recv()
            try:
                if command == "stop":
                    break
                reply = getattr(host, command)(*args)
            except Exception:  # noqa: BLE001 - reported to the generator
                conn.send(("error", traceback.format_exc()))
                continue
            conn.send(("ok", reply))
    finally:
        host.close()
        conn.send(("stopped", None))
        conn.close()


class _HostLink:
    """The generator's side of the host process: commands and teardown."""

    def __init__(self, seed: int, trace: bool) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_host_main, args=(seed, trace, child), name="perfbench-serve-host")
        self.process.start()
        child.close()
        self.replica_pids: list[int] = []

    def _recv(self, timeout: float):
        if not self._conn.poll(timeout):
            raise TimeoutError(f"host did not answer within {timeout:.0f}s")
        kind, payload = self._conn.recv()
        if kind == "error":
            raise RuntimeError(f"host failed:\n{payload}")
        return payload

    def ready(self) -> dict:
        payload = self._recv(600)
        self.replica_pids = list(payload["replica_pids"])
        return payload

    def call(self, command: str, *args, timeout: float = 120.0):
        self._conn.send((command, *args))
        return self._recv(timeout)

    def close(self) -> None:
        """Stop the fleet and the host; kill whatever does not stop."""
        if self.process.is_alive():
            try:
                self._conn.send(("stop",))
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline and self._conn.poll(max(deadline - time.monotonic(), 0)):
                    if self._conn.recv()[0] == "stopped":
                        break
            except (OSError, EOFError):
                pass
            self.process.join(30)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        for pid in self.replica_pids:
            _kill_orphan(pid)
        self._conn.close()


def _kill_orphan(pid: int) -> None:
    """SIGKILL a replica that outlived its host, and wait until it is gone."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            if b"multiprocessing" not in handle.read():
                return  # the pid was reused by an unrelated process
        os.kill(pid, signal.SIGKILL)
    except (FileNotFoundError, ProcessLookupError):
        return
    deadline = time.monotonic() + 10
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        time.sleep(0.05)


# ----------------------------------------------------------------------
# Generator: one asyncio thread, CONNECTIONS connections
# ----------------------------------------------------------------------
class _Record:
    __slots__ = ("index", "request", "due", "dispatched", "sent", "received", "response", "traced", "floor")

    def __init__(
        self, index: int, request: dict, due: float, dispatched: float, traced: bool, floor: int = 0
    ) -> None:
        self.index = index
        self.request = request
        self.due = due
        self.dispatched = dispatched
        self.sent = dispatched
        self.received = dispatched
        self.response: dict = {}
        self.traced = traced
        self.floor = floor  # oldest version a correct answer may come from


class Generator:
    """Sends requests over a small connection pool and records every stamp."""

    def __init__(self, address: tuple[str, int], connections: int, recorder: Recorder | None) -> None:
        self.address = address
        self.connections = connections
        self.recorder = recorder
        self._pool: asyncio.Queue | None = None

    async def open(self) -> None:
        self._pool = asyncio.Queue()
        for _ in range(self.connections):
            self._pool.put_nowait(await self._connect())

    async def _connect(self):
        return await asyncio.open_connection(*self.address, limit=1 << 24)

    async def close(self) -> None:
        while self._pool is not None and not self._pool.empty():
            _, writer = self._pool.get_nowait()
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def send(self, record: _Record) -> None:
        """One request: wait for a free connection, send, await the response."""
        connection = await self._pool.get()
        record.sent = time.monotonic()
        reader, writer = connection
        try:
            writer.write(json.dumps(record.request).encode() + b"\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), CLIENT_TIMEOUT_S)
            if not line:
                raise ConnectionError("front door closed the connection")
            record.response = json.loads(line)
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            record.response = {"ok": False, "error": type(exc).__name__}
            writer.close()
            connection = await self._connect()  # a timed-out stream is out of step
        finally:
            record.received = time.monotonic()
            self._pool.put_nowait(connection)
        if record.traced and self.recorder is not None:
            self.recorder.add("serve.request", record.sent, record.received, rid=record.index)

    async def request(self, payload: dict) -> dict:
        record = _Record(-1, payload, 0.0, time.monotonic(), False)
        await self.send(record)
        return record.response

    async def open_loop(
        self, requests: list[dict], start: float, rate: float, *, first_index: int = 0, traced: bool = False
    ) -> list[_Record]:
        """Send ``requests[i]`` at ``start + i / rate`` whatever the responses do."""
        records, tasks = [], []
        for offset, request in enumerate(requests):
            due = start + offset / rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            record = _Record(first_index + offset, request, due, time.monotonic(), traced)
            records.append(record)
            tasks.append(asyncio.create_task(self.send(record)))
        await asyncio.gather(*tasks)
        return records

    async def closed_loop(
        self, requests, seconds: float, *, traced: bool = False, floor: int = 0
    ) -> tuple[list[_Record], float]:
        """Each connection sends its next request as soon as the last returns.

        ``requests`` yields ``(index, request)`` pairs.  Returns the records
        and the loop's wall seconds.
        """
        records: list[_Record] = []
        start = time.monotonic()
        stop = start + seconds

        async def worker() -> None:
            for index, request in requests:
                now = time.monotonic()
                if now >= stop:
                    return
                record = _Record(index, request, now, now, traced, floor)
                records.append(record)
                await self.send(record)

        await asyncio.gather(*(worker() for _ in range(self.connections)))
        return records, time.monotonic() - start


def request_stream(rng: np.random.Generator, first_index: int, chunk: int = 512):
    """Endless ``(index, request)`` pairs of the read mix, drawn from ``rng``."""
    index = first_index
    while True:
        for request in read_schedule(rng, SERVE_SOURCES, chunk):
            yield index, request
            index += 1


# ----------------------------------------------------------------------
# Metrics from the records
# ----------------------------------------------------------------------
def _version_floors(records: list[_Record]) -> list[tuple[_Record, int]]:
    """Per record, the oldest version a correct answer may come from.

    That is the record's own floor, raised to the newest version its
    replica had already answered from before the request was dispatched.
    Comparing against responses received before the dispatch (not merely
    before the receipt) keeps two connections' responses, read in either
    order, from being mistaken for a step back.
    """
    seen: dict[object, tuple[list[float], list[int]]] = {}
    floors: list[tuple[_Record, int]] = []
    for record in sorted(records, key=lambda r: r.received):
        replica = record.response.get("replica")
        times, maxima = seen.setdefault(replica, ([], []))
        position = bisect.bisect_left(times, record.dispatched)
        floors.append((record, max(record.floor, maxima[position - 1] if position else 0)))
        version = record.response.get("version")
        if record.response.get("ok") and isinstance(version, int):
            times.append(record.received)
            maxima.append(max(version, maxima[-1] if maxima else 0))
    return floors


def _latency(record: _Record, ok: set[int]) -> float:
    """Milliseconds from due time to response; a failure misses any limit.

    A failed request counts as the client timeout, the longest a request
    can take from the client's side.
    """
    if record.index not in ok:
        return CLIENT_TIMEOUT_S * 1e3
    return (record.received - record.due) * 1e3


def _latency_metrics(open_records, closed_records, ok: set[int]) -> dict[str, float]:
    """read_p50/p99 of the open loop; topk_p50 over every top_k request.

    read_p50 is the median of each ``WINDOW_S`` of due times, from the
    run's least-contended windows (``common.calm``); the p99 needs the
    whole run's samples.
    """
    per_window = max(int(RATE * WINDOW_S), 1)
    latencies = [_latency(r, ok) for r in open_records]
    topk = [_latency(r, ok) for r in open_records + closed_records if r.request["op"] == "top_k"]
    return {
        "read_p50_ms": common.calm(
            common.per_window(
                ((r.index // per_window, latency) for r, latency in zip(open_records, latencies)), common.median
            )
        ),
        "read_p99_ms": common.quantile(latencies, 0.99),
        "topk_p50_ms": common.quantile(topk, 0.5),
    }


def _frontend_delta(before: dict, after: dict, read_p50_ms: float) -> dict[str, float]:
    def total(stats: dict, key: str) -> int:
        return sum(int(replica[key]) for replica in stats["replicas"].values())

    flushes = after["batching"]["flushes"] - before["batching"]["flushes"]
    batched = after["batching"]["batched_reads"] - before["batching"]["batched_reads"]
    slo_before, slo_after = before["slo"], after["slo"]
    replicas = [r["latency"] for r in after["replicas"].values() if r["latency"]["count"]]
    backend_p50_ms = common.median(r["p50_seconds"] for r in replicas) * 1e3
    return {
        "frontend.batch_mean_ids": batched / flushes if flushes else 0.0,
        "frontend.hedges_fired": slo_after["hedges"]["fired"] - slo_before["hedges"]["fired"],
        "frontend.slow_ejections": slo_after["ejection"]["slow_ejections_total"]
        - slo_before["ejection"]["slow_ejections_total"],
        "frontend.evictions": total(after, "evictions") - total(before, "evictions"),
        "frontend.shed": after["reads"]["shed"] - before["reads"]["shed"],
        "frontend.deadline_missed": after["reads"]["deadline_missed"] - before["reads"]["deadline_missed"],
        "frontend.backend_p50_ms": backend_p50_ms,
        "frontend.backend_p99_ms": max((r["p99_seconds"] for r in replicas), default=0.0) * 1e3,
        "frontend.self_p50_ms": read_p50_ms - backend_p50_ms,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
async def _drive(link: _HostLink, address, rng: np.random.Generator, seconds: float, trace: bool, recorder) -> dict:
    """Warm-up, then ``SEGMENTS`` pairs of (open loop with publishes, closed loop)."""
    generator = Generator(address, CONNECTIONS, recorder)
    await generator.open()
    try:
        open_s = OPEN_SHARE * seconds / SEGMENTS
        closed_s = (1.0 - OPEN_SHARE) * seconds / SEGMENTS
        per_segment = int(open_s * RATE)
        open_requests = read_schedule(rng, SERVE_SOURCES, per_segment * SEGMENTS)
        stream = request_stream(rng, per_segment * SEGMENTS)
        await generator.closed_loop(request_stream(rng, -(10**9)), WARMUP_S)
        before = (await generator.request({"op": "stats"}))["stats"]
        cpu_start = {pid: common.cpu_seconds(pid) for pid in link.replica_pids}
        wall_start = time.monotonic()
        open_records, closed_records = [], []
        closed_time = {True: 0.0, False: 0.0}
        publish_log: list = []
        for segment in range(SEGMENTS):
            traced = trace and segment % 2 == 0
            start = time.monotonic() + 0.02
            link.call(
                "start_publishing",
                start + PUBLISH_EVERY / 2,
                max(int(open_s / PUBLISH_EVERY), 1),
                traced,
            )
            first = segment * per_segment
            open_records += await generator.open_loop(
                open_requests[first : first + per_segment], start, RATE, first_index=first, traced=traced
            )
            publish_log = link.call("stop_publishing")
            floor = publish_log[-1].version if publish_log else 1
            records, elapsed = await generator.closed_loop(stream, closed_s, traced=traced, floor=floor)
            closed_records += records
            closed_time[traced] += elapsed
        wall = time.monotonic() - wall_start
        cpu_frac = common.median(
            (common.cpu_seconds(pid) - cpu_start[pid]) / wall for pid in link.replica_pids
        )
        after = (await generator.request({"op": "stats"}))["stats"]
        idle_frac = 0.0
        if trace:
            idle_start = {pid: common.cpu_seconds(pid) for pid in link.replica_pids}
            await asyncio.sleep(IDLE_S)
            idle_frac = common.median(
                (common.cpu_seconds(pid) - idle_start[pid]) / IDLE_S for pid in link.replica_pids
            )
        return {
            "open": open_records,
            "closed": closed_records,
            "closed_time": closed_time,
            "publishes": publish_log,
            "stats": (before, after),
            "cpu_frac": cpu_frac,
            "idle_frac": idle_frac,
        }
    finally:
        await generator.close()


def _end_to_end(phases: dict, ok: set[int], traced: bool) -> dict[str, float]:
    """Read and adoption metrics of the traced, or of the untraced, segments."""
    open_records = [r for r in phases["open"] if r.traced == traced]
    closed_records = [r for r in phases["closed"] if r.traced == traced]
    closed_seconds = phases["closed_time"][traced]
    lags = [
        lag
        for entry in phases["publishes"]
        if entry.traced == traced
        for lag in entry.lags
        if lag is not None
    ]
    return {
        **_latency_metrics(open_records, closed_records, ok),
        "read_rps": sum(r.index in ok for r in closed_records) / closed_seconds if closed_seconds else 0.0,
        "adopt_lag_s": common.median(lags),
    }


def run(seed: int, seconds: float, trace: bool) -> None:
    recorder = Recorder(clock=time.monotonic) if trace else None
    link = _HostLink(seed, trace)
    try:
        ready = link.ready()
        rng = np.random.default_rng(common.derive_seeds(seed, 3)[2])
        phases = asyncio.run(_drive(link, tuple(ready["address"]), rng, seconds, trace, recorder))
        peak_rss = max(common.vm_hwm_mb(pid) for pid in link.replica_pids)
        finals = link.call("final_sigmas")
        solve_errors = link.call("sigma_errors")
        micro = link.call("microbench") if trace else {}
        end = link.call("end_solves")
    finally:
        link.close()

    # Checks, after every timed phase.
    sigmas = ready["sigmas"]
    expected = [expected_for(sigma, TOP_K) for sigma in sigmas]
    publishes = phases["publishes"]
    published = {1} | {entry.version for entry in publishes}
    checker = ResponseChecker(lambda v: expected[(v + 1) % 2] if v in published else None)
    open_records, closed_records = phases["open"], phases["closed"]
    failures: dict[str, int] = {}
    ok: set[int] = set()
    for record, floor in _version_floors(open_records + closed_records):
        reason = checker.check(record.request, record.response, min_version=floor)
        if reason is None:
            ok.add(record.index)
        else:
            failures[reason] = failures.get(reason, 0) + 1
    failures["adoption"] = sum(lag is None for entry in publishes for lag in entry.lags)
    failures["adoption_read"] = sum(not entry.checked for entry in publishes)
    failures["sigma"] = sum(
        error > SIGMA_ATOL for error in solve_errors + end["errors"] + list(finals.values())
    )
    failures["setup_repeat"] = int(not ready["repeats_identical"])
    failed = sum(failures.values())
    attempted = (
        len(open_records)
        + len(closed_records)
        + sum(len(entry.lags) for entry in publishes)
        + len(solve_errors)
        + len(end["errors"])
        + len(finals)
    )

    untraced = _end_to_end(phases, ok, traced=False)
    values = {
        "setup_s": common.median(ready["setup_times"]),
        "rank_s": common.median(ready["solve_times"] + end["solve_times"]),
        "peak_rss_mb": peak_rss,
        **untraced,
    }
    provenance = {
        "workload": "serve",
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "shape": {**ready["shape"], "publishes": len(publishes)},
        "phases": {
            "open": {
                "sent": len(open_records),
                "failed": sum(r.index not in ok for r in open_records),
                "rate": RATE,
                "segments": SEGMENTS,
            },
            "closed": {
                "sent": len(closed_records),
                "failed": sum(r.index not in ok for r in closed_records),
                "connections": CONNECTIONS,
                "seconds": sum(phases["closed_time"].values()),
            },
        },
        "failures": failures,
        "setup_times_s": ready["setup_times"],
        "solve_times_s": ready["solve_times"],
        "end_solve_times_s": end["solve_times"],
        "solve_sigma_errors": solve_errors,
        "replica_sigma_errors": finals,
        "adopt_lags_s": [entry.lags for entry in publishes],
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

    traced = _end_to_end(phases, ok, traced=True)
    lateness = [(r.dispatched - r.due) * 1e3 for r in open_records]
    pool_wait = [(r.sent - r.dispatched) * 1e3 for r in open_records]
    layers = {
        **{k: v for k, v in micro.items() if k != "span_bytes"},
        "fleet.replica_cpu_frac": phases["cpu_frac"],
        "fleet.idle_cpu_frac": phases["idle_frac"],
        **_frontend_delta(*phases["stats"], values["read_p50_ms"]),
        "gen.late_p99_ms": common.quantile(lateness, 0.99),
        "gen.pool_wait_p50_ms": common.quantile(pool_wait, 0.5),
        **{f"overhead.{k}": traced[k] - untraced[k] for k in traced},
        "overhead.peak_rss_mb": (micro.get("span_bytes", 0) + recorder.nbytes()) / 2**20,
    }
    provenance["end_to_end_untraced"] = values
    common.emit(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=table(layers, PER_LAYER),
        provenance=provenance,
        spans=recorder.spans,
        tag=f"serve-{seed}",
    )
