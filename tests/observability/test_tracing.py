"""Span nesting, ambient-tracer activation, span events, and tree rendering."""

from __future__ import annotations

import threading

import pytest

from repro.observability import Tracer, current_tracer, emit, format_tree, span
from repro.observability.tracing import ROOT_RING


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self) -> None:
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert [r.name for r in tracer.roots] == ["root"]
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["child_a", "child_b"]
        assert root.children[0].children[0].name == "grandchild"

    def test_durations_are_stamped_and_contain_children(self) -> None:
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.duration >= inner.duration >= 0.0

    def test_sequential_roots(self) -> None:
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_span_meta_and_walk_and_find(self) -> None:
        tracer = Tracer()
        with tracer.span("a", kind="outer") as rec:
            rec.meta["extra"] = 1
            with tracer.span("b"):
                pass
        assert tracer.roots[0].meta == {"kind": "outer", "extra": 1}
        assert [s.name for s in tracer.walk()] == ["a", "b"]
        assert len(tracer.find("b")) == 1

    def test_exception_still_closes_span(self) -> None:
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.roots[0].duration >= 0.0


class TestAmbientTracer:
    def test_module_span_is_noop_without_active_tracer(self) -> None:
        assert current_tracer() is None
        with span("orphan") as record:
            assert record is None

    def test_module_span_attaches_to_active_tracer(self) -> None:
        tracer = Tracer()
        with tracer.activate():
            assert current_tracer() is tracer
            with span("attached") as record:
                assert record is not None
        assert current_tracer() is None
        assert [r.name for r in tracer.roots] == ["attached"]

    def test_activation_nests_and_restores(self) -> None:
        outer, inner = Tracer(), Tracer()
        with outer.activate():
            with inner.activate():
                with span("x"):
                    pass
            assert current_tracer() is outer
        assert [r.name for r in inner.roots] == ["x"]
        assert outer.roots == []


class TestSerialization:
    def test_as_dict_shape(self) -> None:
        tracer = Tracer()
        with tracer.span("root", n=3):
            with tracer.span("leaf"):
                pass
        payload = tracer.as_dict()
        root = payload["spans"][0]
        assert root["name"] == "root"
        assert root["meta"] == {"n": 3}
        assert root["children"][0]["name"] == "leaf"
        assert "children" not in root["children"][0]

    def test_format_tree_indents_children(self) -> None:
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("leaf", hint="x"):
                pass
        text = format_tree(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("root:")
        assert lines[1].startswith("  leaf:")
        assert "[hint=x]" in lines[1]


class TestThreadSafety:
    def test_threads_never_interleave_into_each_others_traces(self) -> None:
        # Regression: one tracer shared by the serving updater and its
        # readers must keep each thread's spans in that thread's own
        # tree — an updater span opening while a reader span is open
        # must become a separate root, never a child of the reader's.
        import threading

        tracer = Tracer()
        barrier = threading.Barrier(4)

        def worker(name: str) -> None:
            for i in range(25):
                if i == 0:
                    barrier.wait()
                with tracer.span(f"{name}-outer", i=i):
                    with tracer.span(f"{name}-inner"):
                        pass

        threads = [
            threading.Thread(target=worker, args=(f"w{k}",)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.roots
        assert len(roots) == 100
        for root in roots:
            prefix = root.name.split("-")[0]
            # Each root holds exactly its own thread's nested span, and
            # every span in the tree carries the opening thread's tid.
            assert [c.name for c in root.children] == [f"{prefix}-inner"]
            assert {s.tid for s in root.walk()} == {root.tid}

    def test_max_roots_ring_keeps_newest(self) -> None:
        tracer = Tracer()
        for i in range(ROOT_RING + 3):
            with tracer.span(f"s{i}"):
                pass
        names = [r.name for r in tracer.roots]
        assert len(names) == ROOT_RING
        assert names[0] == "s3" and names[-1] == f"s{ROOT_RING + 2}"

    def test_worker_thread_activating_the_tracer_nests_under_its_own_roots(
        self,
    ) -> None:
        tracer = Tracer()
        seen: list[object] = []

        def worker() -> None:
            seen.append(current_tracer())  # context variables stay behind
            with tracer.activate(), span("worker"):
                with span("worker-solve"):
                    emit("from-worker")

        with tracer.activate(), span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            emit("from-main")
        assert seen == [None]
        main, worker_root = sorted(tracer.roots, key=lambda r: r.name)
        assert (main.name, worker_root.name) == ("main", "worker")
        assert main.children == []  # the worker's spans never nest here
        assert [c.name for c in worker_root.children] == ["worker-solve"]
        assert worker_root.tid != main.tid
        events = tracer.events()
        assert [e["kind"] for e in events] == ["from-worker", "from-main"]
        assert {e["run_id"] for e in events} == {tracer.run_id}
        assert worker_root.children[0].events == [events[0]]
        assert main.events == [events[1]]


class TestSpanEvents:
    def test_event_in_a_span_is_on_the_span_and_in_the_ring(self) -> None:
        tracer = Tracer()
        with tracer.activate():
            emit("outside")
            with span("outer") as outer:
                with span("inner") as inner:
                    event = emit("tick", n=3)
                emit("after-inner")
        assert inner.events == [event]
        assert [e["kind"] for e in outer.events] == ["after-inner"]
        ring = {e["seq"]: e for e in tracer.events()}
        assert ring[event["seq"]] is event
        assert event["kind"] == "tick" and event["n"] == 3
        # The span's JSON carries its events.
        assert outer.as_dict()["children"][0]["events"][0]["seq"] == event["seq"]
