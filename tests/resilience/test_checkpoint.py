"""Tests for :mod:`repro.resilience.checkpoint` (solve + stage resume)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from repro.config import RankingParams, ResilienceParams
from repro.core.pipeline import SpamResilientPipeline
from repro.errors import ConvergenceError, NumericalError
from repro.linalg.operator import CsrOperator
from repro.observability.metrics import get_registry, reset_registry
from repro.ranking.power import power_iteration
from repro.resilience import (
    FaultyOperator,
    PipelineCheckpointer,
    SimulatedCrash,
    SolveCheckpointer,
    content_key,
    crash_at_iteration,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    reset_registry()
    yield
    reset_registry()


class TestContentKey:
    def test_deterministic(self):
        a = np.arange(5)
        assert content_key(a, "x", 1.5) == content_key(a, "x", 1.5)

    def test_sensitive_to_values_dtype_and_shape(self):
        a = np.arange(6)
        assert content_key(a) != content_key(a + 1)
        assert content_key(a) != content_key(a.astype(np.float64))
        assert content_key(a) != content_key(a.reshape(2, 3))

    def test_csr_hashes_structure(self, small_source_graph):
        m = small_source_graph.matrix
        key = content_key(m)
        tweaked = m.copy()
        tweaked.data = tweaked.data.copy()
        tweaked.data[0] += 1.0
        assert key != content_key(tweaked)


class TestSolveCheckpointer:
    def test_save_load_roundtrip(self, tmp_path):
        ckpt = SolveCheckpointer(tmp_path, every=5, resume=True)
        x = np.linspace(0, 1, 8)
        ckpt.save("solve", x, 10, 1e-3)
        state = ckpt.load("solve")
        np.testing.assert_array_equal(state.x, x)
        assert state.iteration == 10
        assert state.residual == 1e-3

    def test_load_without_resume_returns_none(self, tmp_path):
        ckpt = SolveCheckpointer(tmp_path, every=5, resume=False)
        ckpt.save("solve", np.ones(3), 5, 0.1)
        assert ckpt.load("solve") is None

    def test_tampered_checkpoint_ignored(self, tmp_path):
        ckpt = SolveCheckpointer(tmp_path, every=5, resume=True)
        ckpt.save("solve", np.ones(3), 5, 0.1)
        path = ckpt.path_for("solve")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert ckpt.load("solve") is None

    def test_maybe_save_respects_interval(self, tmp_path):
        ckpt = SolveCheckpointer(tmp_path, every=10, resume=True)
        assert not ckpt.maybe_save("s", np.ones(2), 7, 0.1)
        assert ckpt.maybe_save("s", np.ones(2), 20, 0.1)

    def test_clear_removes_file(self, tmp_path):
        ckpt = SolveCheckpointer(tmp_path, every=1, resume=True)
        ckpt.save("s", np.ones(2), 1, 0.1)
        ckpt.clear("s")
        assert ckpt.load("s") is None
        ckpt.clear("s")  # idempotent

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        ckpt = SolveCheckpointer(tmp_path, every=1, resume=True)
        for i in range(5):
            ckpt.save("s", np.full(4, float(i)), i, 0.1)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert ckpt.load("s").iteration == 4


class TestCrashResume:
    def test_crash_then_resume_identical_sigma(
        self, small_source_graph, tmp_path
    ):
        matrix = small_source_graph.matrix
        base = RankingParams(
            tolerance=1e-12,
            max_iter=500,
            resilience=ResilienceParams(checkpoint_every=2),
        )
        reference = power_iteration(matrix, base)
        assert reference.convergence.iterations > 6

        ckpt = SolveCheckpointer(tmp_path, resume=False)
        with pytest.raises(SimulatedCrash):
            power_iteration(
                matrix,
                base.with_(checkpoint=ckpt),
                label="crashy",
                callback=crash_at_iteration(6),
            )
        resumed = power_iteration(
            matrix,
            base.with_(
                checkpoint=SolveCheckpointer(tmp_path, resume=True)
            ),
            label="crashy",
        )
        np.testing.assert_allclose(
            resumed.scores, reference.scores, atol=1e-9
        )
        # The resumed solve did not start over from iteration zero.
        assert (
            resumed.convergence.iterations
            <= reference.convergence.iterations
        )
        resumes = (
            get_registry()
            .counter("repro_checkpoint_resumes_total", labelnames=("kind",))
            .labels(kind="solve")
            .value
        )
        assert resumes == 1

    def test_nan_iterate_stops_the_solve_and_is_never_saved(self, tmp_path):
        # Without guards, the first non-finite residual ends the solve with
        # the last finite iterate, and no NaN checkpoint outlives it.
        links = sp.random(2000, 2000, density=0.005, random_state=17, format="csr")
        out = np.asarray(links.sum(axis=1)).ravel()
        matrix = (sp.diags(1.0 / np.maximum(out, 1e-12)) @ links).tocsr()
        clean = power_iteration(matrix, RankingParams())
        ckpt = SolveCheckpointer(tmp_path, every=25, resume=True)
        params = RankingParams().with_(checkpoint=ckpt)

        def faulty() -> FaultyOperator:
            return FaultyOperator(CsrOperator(matrix), corrupt_at_call=5, seed=17)

        with pytest.raises(ConvergenceError) as info:
            power_iteration(faulty(), params, label="nan")
        assert info.value.iterations == 5
        assert np.isfinite(info.value.last_iterate).all()
        assert not ckpt.path_for("nan").exists()
        resumed = power_iteration(matrix, params, label="nan")
        assert resumed.convergence.iterations == clean.convergence.iterations
        np.testing.assert_array_equal(resumed.scores, clean.scores)
        # With guards on, the guard still names the fault first.
        with pytest.raises(NumericalError):
            power_iteration(faulty(), RankingParams(resilience=ResilienceParams()))
        trips = (
            get_registry()
            .counter("repro_guard_trips_total", labelnames=("kind",))
            .labels(kind="nan")
            .value
        )
        assert trips == 1


class TestPipelineStageCheckpoints:
    def test_stage_resume_identical_scores(
        self, small_graph, small_assignment, tmp_path
    ):
        seeds = np.array([1, 2, 3])
        with SpamResilientPipeline(checkpoint_dir=tmp_path) as pipe:
            first = pipe.rank(small_graph, small_assignment, spam_seeds=seeds)
        with SpamResilientPipeline(
            checkpoint_dir=tmp_path, resume=True
        ) as pipe:
            second = pipe.rank(small_graph, small_assignment, spam_seeds=seeds)
        np.testing.assert_allclose(
            second.scores.scores, first.scores.scores, atol=1e-12
        )
        rank_span = [c for c in second.trace.children if c.name == "rank"][0]
        assert rank_span.meta.get("resumed") is True
        resumes = (
            get_registry()
            .counter("repro_checkpoint_resumes_total", labelnames=("kind",))
            .labels(kind="stage")
            .value
        )
        assert resumes == 2  # proximity + rank

    def test_changed_inputs_change_key(
        self, small_graph, small_assignment, tmp_path
    ):
        with SpamResilientPipeline(
            checkpoint_dir=tmp_path, resume=True
        ) as pipe:
            pipe.rank(small_graph, small_assignment, spam_seeds=[1, 2])
            second = pipe.rank(
                small_graph, small_assignment, spam_seeds=[1, 2, 3]
            )
        # Different seed set ⇒ different content key ⇒ no stage resume.
        rank_span = [c for c in second.trace.children if c.name == "rank"][0]
        assert "resumed" not in rank_span.meta

    def test_load_stage_ignores_missing(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path, resume=True)
        assert ckpt.load_stage("deadbeef", "rank", ("scores",)) is None


class TestContentKeyCanonicalization:
    """Satellite regression: mappings/sets must hash order-independently."""

    @given(
        st.dictionaries(
            st.text(max_size=8),
            st.integers(-1000, 1000),
            min_size=2,
            max_size=6,
        )
    )
    def test_dict_insertion_order_irrelevant(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert content_key(mapping) == content_key(reordered)

    @given(st.sets(st.integers(-1000, 1000), min_size=2, max_size=8))
    def test_set_iteration_order_irrelevant(self, items):
        # Build two sets with different insertion histories.
        ordered = sorted(items)
        forward = set()
        backward = set()
        for item in ordered:
            forward.add(item)
        for item in reversed(ordered):
            backward.add(item)
        assert content_key(forward) == content_key(backward)
        assert content_key(frozenset(items)) == content_key(items)

    @given(
        st.dictionaries(
            st.text(max_size=8), st.integers(-100, 100), min_size=2, max_size=5
        )
    )
    def test_nested_mapping_in_sequence_canonical(self, mapping):
        reordered = dict(reversed(list(mapping.items())))
        assert content_key([mapping, "tail"]) == content_key([reordered, "tail"])

    def test_dict_content_still_matters(self):
        assert content_key({"a": 1}) != content_key({"a": 2})
        assert content_key({"a": 1}) != content_key({"b": 1})

    def test_sequence_order_still_matters(self):
        # Lists/tuples are *ordered* containers; canonicalization must
        # not erase their order.
        assert content_key([1, 2]) != content_key([2, 1])

    def test_container_types_do_not_collide(self):
        assert content_key({1: 2}) != content_key([(1, 2)])
        assert content_key({1, 2}) != content_key([1, 2])

    def test_arrays_inside_containers(self):
        a = np.arange(4)
        assert content_key({"x": a}) == content_key({"x": a.copy()})
        assert content_key({"x": a}) != content_key({"x": a + 1})
