"""The load generator measures from due times; version floors and adoption lags."""

import asyncio
import json
import time

import pytest

from perfbench.serve_workload import (
    Generator,
    _latency_metrics,
    _Record,
    _version_floors,
)

STALL_S = 0.3
RATE = 50.0


async def _fake_door(stall_on: int):
    """A line-JSON server that answers at once, except it stalls on one request."""
    served = 0

    async def handle(reader, writer):
        nonlocal served
        while line := await reader.readline():
            request = json.loads(line)
            served += 1
            if served == stall_on:
                await asyncio.sleep(STALL_S)
            writer.write(json.dumps({"ok": True, "version": 1, "echo": request["n"]}).encode() + b"\n")
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


async def _run_open_loop(connections: int):
    server = await _fake_door(stall_on=3)
    try:
        generator = Generator(server.sockets[0].getsockname()[:2], connections, None)
        await generator.open()
        try:
            start = time.monotonic() + 0.05
            return await generator.open_loop([{"op": "score", "n": i} for i in range(30)], start, RATE)
        finally:
            await generator.close()
    finally:
        server.close()
        await server.wait_closed()


def test_later_requests_carry_a_stall():
    records = asyncio.run(_run_open_loop(connections=1))
    assert [r.response["echo"] for r in records] == list(range(30))
    latency = [(r.received - r.due) for r in records]
    stalled = records[2]
    stall_end = stalled.received
    # Every request due while the only connection was stalled waited for it.
    waiting = [r for r in records[3:] if r.due < stall_end - 0.01]
    assert len(waiting) >= 10
    for record in waiting:
        assert record.received - record.due >= stall_end - record.due - 1e-3
        assert record.sent >= stall_end - 1e-3  # it waited for the connection
        assert record.dispatched - record.due < 0.05  # but the generator was on time
    # Latency decays as the backlog drains, and the stall shows at the 99th percentile.
    assert latency[3] > latency[10] > latency[-1]
    metrics = _latency_metrics(records, [], ok={r.index for r in records})
    assert metrics["read_p99_ms"] >= 0.9 * STALL_S * 1e3
    assert metrics["read_p50_ms"] < STALL_S * 1e3


def test_failed_requests_miss_every_limit():
    records = asyncio.run(_run_open_loop(connections=2))
    ok = {r.index for r in records[: len(records) // 2]}
    metrics = _latency_metrics(records, [], ok)
    assert metrics["read_p99_ms"] == pytest.approx(10_000.0)


def test_p50_comes_from_the_least_contended_windows():
    # Ten 1 s windows of 50 requests each, at 10 ms in a fast window and
    # 15 ms in a slow one.  A pooled median jumps from 15 to 10 ms as the
    # fast share crosses a half; the figure of the fast windows stays put.
    def p50(fast_windows: int) -> float:
        records = []
        for index in range(500):
            record = _Record(index, {"op": "score", "ids": [0]}, index / RATE, index / RATE, False)
            record.received = record.due + (0.010 if index // 50 < fast_windows else 0.015)
            records.append(record)
        return _latency_metrics(records, [], ok=set(range(500)))["read_p50_ms"]

    assert p50(2) == pytest.approx(10.0)
    assert p50(8) == pytest.approx(10.0)
    assert p50(0) == pytest.approx(15.0)


def _record(index, replica, version, dispatched, received, floor=0):
    record = _Record(index, {"op": "score", "ids": [0]}, dispatched, dispatched, False, floor)
    record.received = received
    record.response = {"ok": True, "replica": replica, "version": version}
    return record


def test_version_floor_uses_responses_received_before_dispatch():
    records = [
        _record(0, 0, 2, dispatched=0.0, received=1.0),
        # Received after record 0, but dispatched before it arrived: no floor.
        _record(1, 0, 1, dispatched=0.5, received=1.1),
        # Dispatched after replica 0 answered from version 2: floor is 2.
        _record(2, 0, 1, dispatched=1.2, received=1.3),
        _record(3, 1, 1, dispatched=1.2, received=1.4),
        # A closed-loop record carries its segment's floor.
        _record(4, 1, 1, dispatched=1.5, received=1.6, floor=3),
    ]
    floors = {record.index: floor for record, floor in _version_floors(records)}
    assert floors == {0: 0, 1: 0, 2: 2, 3: 0, 4: 3}
