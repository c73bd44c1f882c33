"""Self-time arithmetic, span grouping, and probe install/restore."""

import types

import pytest

from perfbench.rank_workloads import rank_breakdown
from perfbench.spans import Probes, Recorder, Span, covered, self_times, subtrees


def _tree(*rows):
    """Spans from ``(name, start, end, parent)`` rows, ids in row order."""
    return [Span(i, name, start, end, parent) for i, (name, start, end, parent) in enumerate(rows)]


def test_self_time_subtracts_children():
    spans = _tree(
        ("core.rank", 0.0, 10.0, None),
        ("sources.quotient", 1.0, 4.0, 0),
        ("ranking.solve", 5.0, 9.0, 0),
        ("linalg.rmatvec.csr", 6.0, 7.5, 2),
    )
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 2.5, 3: 1.5})
    # Sequential children: self times partition the root's duration.
    assert sum(selfs.values()) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_counted_once():
    spans = _tree(
        ("core.rank", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),
        ("c", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] is covered
    )
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert covered(0.0, 10.0, [(2.0, 3.0), (2.5, 2.7), (4.0, 4.0)]) == pytest.approx(1.0)


def test_subtrees_follow_parents():
    spans = _tree(
        ("core.rank", 0.0, 1.0, None),
        ("x", 0.1, 0.2, 0),
        ("y", 0.15, 0.18, 1),
        ("core.rank", 2.0, 3.0, None),
        ("z", 2.1, 2.2, 3),
        ("stray", 5.0, 6.0, None),
    )
    groups = subtrees(spans, [0, 3])
    assert [s.sid for s in groups[0]] == [0, 1, 2]
    assert [s.sid for s in groups[3]] == [3, 4]


def test_rank_breakdown_layers_sum_to_the_rank():
    # rank_store: open (one stats load) then two sweeps over 2 blocks, one
    # of which hits the cache each sweep.
    spans = _tree(
        ("core.rank_store", 0.0, 10.0, None),
        ("linalg.open", 0.5, 1.5, 0),
        ("webgraph.load_block", 0.6, 1.0, 1),
        ("ranking.registry_solve", 2.0, 9.0, 0),
        ("linalg.rmatvec.throttled", 3.0, 5.0, 3),
        ("linalg.rmatvec.blocked", 3.2, 4.8, 4),
        ("webgraph.load_block", 3.3, 4.3, 5),
        ("linalg.rmatvec.throttled", 6.0, 8.0, 3),
        ("linalg.rmatvec.blocked", 6.2, 7.8, 7),
        ("webgraph.load_block", 6.3, 7.3, 8),
    )
    spans[2].meta = spans[6].meta = spans[9].meta = {"payload_bytes": 2_000_000}
    spans[3].meta = {"iterations": 2}
    out = rank_breakdown(spans, n_blocks=2)
    layer_sum = sum(v for k, v in out.items() if k.startswith("layer_self_s."))
    assert layer_sum == pytest.approx(10.0)
    assert out["core.self_s"] == pytest.approx(10.0 - 1.0 - 7.0)
    assert out["webgraph.load_block_calls"] == 3
    assert out["webgraph.decoded_mb"] == pytest.approx(6.0)
    assert out["ranking.solve_s"] == pytest.approx(7.0)
    assert out["ranking.iterations"] == 2
    assert out["linalg.rmatvec_calls.blocked"] == 2
    # 2 sweep loads out of 2 sweeps x 2 blocks: half the block reads hit.
    assert out["linalg.block_cache_hit_ratio"] == pytest.approx(0.5)


class _Widget:
    def work(self, x):
        return x * 2

    @classmethod
    def build(cls, x):
        return cls(), x


def test_probes_record_and_restore():
    module = types.SimpleNamespace(helper=lambda x: x + 1)
    original_work = _Widget.__dict__["work"]
    original_build = _Widget.__dict__["build"]
    recorder = Recorder()
    probes = Probes(recorder)
    probes.method(_Widget, "work", "core.work", after=lambda args, result: {"x": args[1]})
    probes.classmethod(_Widget, "build", "core.build")
    probes.function(module, "helper", "core.helper")
    with probes.installed():
        assert _Widget().work(3) == 6
        assert _Widget.build(4)[1] == 4
        assert module.helper(1) == 2
    assert [s.name for s in recorder.spans] == ["core.work", "core.build", "core.helper"]
    assert recorder.spans[0].meta == {"x": 3}
    assert all(s.end >= s.start for s in recorder.spans)
    assert _Widget.__dict__["work"] is original_work
    assert _Widget.__dict__["build"] is original_build
    _Widget().work(1)
    assert len(recorder.spans) == 3  # nothing recorded once restored


def test_nested_probe_spans_get_parents():
    recorder = Recorder()
    outer = recorder.open("core.rank")
    inner = recorder.open("ranking.solve")
    recorder.close(inner)
    recorder.close(outer)
    assert inner.parent == outer.sid and outer.parent is None
