"""Tests for profiling spans: a tracer built with ``profile=True``."""

from __future__ import annotations

import threading

import pytest

from repro.observability import Tracer, current_tracer, span
from repro.observability.tracing import PROFILE_TOP


def burn(n: int = 20_000) -> int:
    return sum(range(n))


class TestProfiler:
    def test_outermost_block_gets_cprofile_top_table(self) -> None:
        tracer = Tracer(profile=True)
        with tracer.span("rank"):
            burn()
        (record,) = tracer.roots
        assert record.name == "rank"
        assert record.meta["calls"] > 0
        top = record.meta["top"]
        assert 0 < len(top) <= PROFILE_TOP
        assert set(top[0]) == {
            "function",
            "calls",
            "tottime_seconds",
            "cumtime_seconds",
        }
        # Rows are sorted by cumulative time, hottest first.
        cums = [r["cumtime_seconds"] for r in top]
        assert cums == sorted(cums, reverse=True)

    def test_nested_block_records_wall_and_cpu_only(self) -> None:
        tracer = Tracer(profile=True)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                burn()
        assert "calls" not in inner.meta and "top" not in inner.meta
        assert outer.meta["calls"] > 0
        assert outer.meta["wall_seconds"] >= inner.meta["wall_seconds"] >= 0.0
        assert inner.meta["cpu_seconds"] >= 0.0

    def test_exception_still_records_the_block(self) -> None:
        tracer = Tracer(profile=True)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = tracer.roots
        assert record.name == "doomed"
        assert record.meta["wall_seconds"] >= 0.0
        # The deterministic profiler slot is released for the next span.
        with tracer.span("after") as after:
            pass
        assert after.meta["calls"] is not None

    def test_meta_and_find_and_as_dict(self) -> None:
        tracer = Tracer(profile=True)
        with tracer.span("update", seq=3):
            burn()
        (record,) = tracer.find("update")
        assert record.meta["seq"] == 3
        assert tracer.find("absent") == []
        (entry,) = tracer.as_dict()["spans"]
        assert entry["name"] == "update"
        assert entry["meta"]["seq"] == 3
        assert entry["meta"]["cpu_seconds"] >= 0.0

    def test_unprofiled_tracer_records_no_timings(self) -> None:
        tracer = Tracer()
        with tracer.span("plain") as record:
            burn()
        assert record.meta == {}

    def test_each_thread_gets_its_own_outermost_cprofile(self) -> None:
        tracer = Tracer(profile=True)

        def worker() -> None:
            with tracer.span(f"t{threading.get_ident()}"):
                burn()

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.roots
        assert len(roots) == 3
        # Every thread's span was outermost on its thread: all cProfile'd.
        assert all(r.meta["calls"] > 0 for r in roots)


class TestAmbientProfileBlock:
    def test_noop_without_active_profiler(self) -> None:
        assert current_tracer() is None
        with span("orphan") as record:
            assert record is None

    def test_activate_routes_profile_block(self) -> None:
        tracer = Tracer(profile=True)
        with tracer.activate():
            with span("solve:power", solver="power") as record:
                burn()
        assert current_tracer() is None
        assert record is not None and record.meta["solver"] == "power"
        assert tracer.find("solve:power")[0].meta["wall_seconds"] > 0.0

    def test_activation_does_not_leak_into_threads(self) -> None:
        tracer = Tracer(profile=True)
        seen: list[object] = []

        def worker() -> None:
            seen.append(current_tracer())

        with tracer.activate():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == [None]
