"""Tests for the tracer's events: the ring, the JSON-lines file, ambient emit."""

from __future__ import annotations

import gc
import json
import threading
import warnings

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    Tracer,
    current_tracer,
    emit,
    new_run_id,
    read_events,
)
from repro.observability.tracing import EVENT_RING


class TestEventLog:
    def test_every_event_carries_the_run_id(self) -> None:
        tracer = Tracer()
        tracer.emit("a")
        tracer.emit("b", x=1)
        assert [e["run_id"] for e in tracer.events()] == [tracer.run_id] * 2
        assert list(tracer.events()[1]) == ["run_id", "seq", "ts", "kind", "x"]

    def test_run_id_generated_when_omitted(self) -> None:
        assert Tracer().run_id.startswith("run-")
        assert Tracer().run_id != Tracer().run_id
        assert new_run_id() != new_run_id()

    def test_seq_is_monotonic_and_len_counts_all(self) -> None:
        tracer = Tracer()
        for _ in range(EVENT_RING + 2):
            tracer.emit("tick")
        assert tracer.events_emitted == EVENT_RING + 2
        seqs = [e["seq"] for e in tracer.events()]
        assert seqs == list(range(3, EVENT_RING + 3))  # ring kept the tail

    def test_kind_filter_and_limit(self) -> None:
        tracer = Tracer()
        tracer.emit("a")
        tracer.emit("b")
        tracer.emit("a")
        assert [e["seq"] for e in tracer.events("a")] == [1, 3]
        assert [e["seq"] for e in tracer.events(limit=1)] == [3]
        assert [e["seq"] for e in tracer.events(limit=10)] == [1, 2, 3]
        assert tracer.events(limit=0) == []
        with pytest.raises(ObservabilityError, match="limit"):
            tracer.events(limit=-1)

    def test_numpy_fields_serialize(self, tmp_path) -> None:
        path = tmp_path / "events.jsonl"
        Tracer(events_path=path).emit(
            "solve", residual=np.float64(0.5), n=np.int64(7)
        )
        event = read_events(path)[0]
        assert event["residual"] == 0.5
        assert event["n"] == 7

    def test_jsonl_round_trip(self, tmp_path) -> None:
        path = tmp_path / "sub" / "events.jsonl"
        tracer = Tracer(events_path=path)
        tracer.emit("start", stage="rank")
        tracer.emit("end")
        events = read_events(path)
        assert [e["kind"] for e in events] == ["start", "end"]
        assert all(e["run_id"] == tracer.run_id for e in events)
        assert events == tracer.events()

    def test_torn_trailing_line_is_skipped(self, tmp_path) -> None:
        path = tmp_path / "events.jsonl"
        Tracer(events_path=path).emit("whole")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "torn", "ru')  # crash mid-write
        events = read_events(path)
        assert [e["kind"] for e in events] == ["whole"]

    def test_no_file_is_left_open(self, tmp_path) -> None:
        path = tmp_path / "events.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            tracer = Tracer(events_path=path)
            tracer.emit("a")
            del tracer
            gc.collect()
            Tracer(events_path=path).emit("b")  # appends, never truncates
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        assert [e["kind"] for e in read_events(path)] == ["a", "b"]


class TestAmbientEmit:
    def test_emit_is_noop_without_active_log(self) -> None:
        assert current_tracer() is None
        assert emit("orphan") is None

    def test_activate_routes_module_level_emit(self) -> None:
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            event = emit("inside", x=1)
        assert event is not None and event["run_id"] == tracer.run_id
        assert current_tracer() is None
        assert [e["kind"] for e in tracer.events()] == ["inside"]

    def test_activation_nests_and_restores(self) -> None:
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                assert emit("x")["run_id"] == inner.run_id
            assert emit("y")["run_id"] == outer.run_id
        assert [e["kind"] for e in inner.events()] == ["x"]
        assert [e["kind"] for e in outer.events()] == ["y"]

    def test_activation_does_not_leak_into_threads(self) -> None:
        tracer = Tracer()
        seen: list[object] = []

        def worker() -> None:
            seen.append(current_tracer())
            with tracer.activate():
                emit("from-thread")

        with tracer.activate():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # Fresh threads start without the ambient tracer (contextvars do
        # not propagate) and must re-activate inside the thread body.
        assert seen == [None]
        assert [e["kind"] for e in tracer.events()] == ["from-thread"]

    def test_concurrent_emits_are_not_lost(self) -> None:
        tracer = Tracer()

        def hammer() -> None:
            with tracer.activate():
                for _ in range(200):
                    emit("tick")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.events_emitted == 800
        assert sorted(e["seq"] for e in tracer.events()) == list(range(1, 801))

    def test_file_lines_are_valid_json(self, tmp_path) -> None:
        path = tmp_path / "events.jsonl"
        tracer = Tracer(events_path=path)
        with tracer.activate():
            emit("a", nested={"x": [1, 2]}, text='quo"te')
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line)


class TestAuditEvents:
    def test_violations_emit_on_the_active_log(self) -> None:
        from repro.audit.invariants import InvariantViolation, record_violations

        tracer = Tracer()
        violation = InvariantViolation(
            invariant="row_stochastic", subject="T'", message="row 3", value=0.1
        )
        with tracer.activate():
            record_violations([violation], strict=False, warn=False)
        (event,) = tracer.events("audit_violation")
        assert event["invariant"] == "row_stochastic"
        assert event["run_id"] == tracer.run_id
        assert event["strict"] is False
