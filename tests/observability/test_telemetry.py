"""Solve spans, pipeline tracing, export payloads, and the CLI flags."""

from __future__ import annotations

import gc
import json
import warnings

import numpy as np
import pytest

from repro import SpamResilientPipeline
from repro.cli import main
from repro.config import ObservabilityParams, RankingParams
from repro.core.pipeline import PIPELINE_STAGES
from repro.errors import ConvergenceError
from repro.eval.reporting import convergence_row, format_convergence
from repro.graph import PageGraph
from repro.observability import (
    Tracer,
    build_metrics_payload,
    get_registry,
    read_events,
    reset_registry,
    write_metrics,
)
from repro.ranking.base import ConvergenceInfo
from repro.ranking.gauss_seidel import gauss_seidel_solve
from repro.ranking.jacobi import jacobi_solve
from repro.ranking.pagerank import pagerank
from repro.ranking.power import power_iteration


@pytest.fixture()
def fresh_registry():
    registry = reset_registry()
    yield registry
    reset_registry()


def solve_spans(tracer: Tracer):
    return [s for s in tracer.walk() if s.name.startswith("solve:")]


class TestSolverTelemetry:
    def test_power_records_residual_curve_and_kernel(self, triangle_graph) -> None:
        tracer = Tracer(profile=True)
        with tracer.activate():
            result = pagerank(triangle_graph, RankingParams(tolerance=1e-8))
        (run,) = solve_spans(tracer)
        attrs = run.meta
        assert run.name == "solve:pagerank"
        assert attrs["solver"] == "power"
        assert attrs["kernel"] == "scipy"
        assert attrs["n"] == 3
        assert attrs["converged"]
        assert attrs["iterations"] == result.convergence.iterations
        assert tuple(attrs["residuals"]) == result.convergence.residual_history
        assert attrs["final_residual"] == result.convergence.residual
        assert len(attrs["step_seconds"]) == attrs["iterations"]
        assert all(s >= 0.0 for s in attrs["step_seconds"])
        assert run.duration > 0.0

    def test_power_records_dangling_mass(self) -> None:
        # Nodes 1 and 2 are dangling: the walk leaks mass every step.
        graph = PageGraph.from_edges([0], [1], 3)
        tracer = Tracer(profile=True)
        with tracer.activate():
            pagerank(graph, RankingParams(tolerance=1e-6))
        attrs = solve_spans(tracer)[0].meta
        assert attrs["n_dangling"] == 2
        assert len(attrs["dangling_mass"]) == attrs["iterations"]
        assert all(0.0 <= m <= 1.0 for m in attrs["dangling_mass"])

    def test_series_need_a_profiling_tracer(self) -> None:
        tracer = Tracer()
        with tracer.activate():
            pagerank(PageGraph.from_edges([0], [1], 3), RankingParams())
        attrs = solve_spans(tracer)[0].meta
        assert attrs["n_dangling"] == 2 and attrs["residuals"]
        assert "step_seconds" not in attrs and "dangling_mass" not in attrs

    def test_jacobi_and_gauss_seidel_emit_runs(self, small_source_graph) -> None:
        tracer = Tracer()
        params = RankingParams(tolerance=1e-8)
        with tracer.activate():
            jacobi_solve(small_source_graph.matrix, params, label="j")
            gauss_seidel_solve(small_source_graph.matrix, params, label="gs")
        runs = build_metrics_payload(tracer)["solvers"]
        assert [r["solver"] for r in runs["runs"]] == ["jacobi", "gauss_seidel"]
        assert all(r["converged"] and r["residuals"] for r in runs["runs"])
        assert runs["iteration_counts"]["j"] == runs["runs"][0]["iterations"]

    def test_failed_solve_still_reports(self, small_source_graph) -> None:
        tracer = Tracer()
        with tracer.activate(), pytest.raises(ConvergenceError):
            power_iteration(small_source_graph.matrix, RankingParams(max_iter=1))
        (run,) = solve_spans(tracer)
        assert not run.meta["converged"]
        assert run.meta["iterations"] == 1
        assert [e["kind"] for e in tracer.events()] == [
            "solve_start",
            "solve_end",
            "solve_failed",
        ]

    def test_disabled_telemetry_gives_identical_scores(self, triangle_graph) -> None:
        plain = pagerank(triangle_graph, RankingParams())
        with Tracer(profile=True).activate():
            observed = pagerank(triangle_graph, RankingParams())
        np.testing.assert_array_equal(plain.scores, observed.scores)

    def test_as_dict_is_json_ready(self, triangle_graph) -> None:
        tracer = Tracer(profile=True)
        with tracer.activate(), tracer.span("root"):
            pagerank(triangle_graph, RankingParams())
        payload = json.loads(json.dumps(build_metrics_payload(tracer)))
        assert payload["solvers"]["runs"][0]["residuals"]
        assert payload["solvers"]["iteration_counts"]["pagerank"] >= 1
        assert payload["meta"]["run_id"] == tracer.run_id


class TestPipelineTracing:
    def test_all_five_stage_spans_appear(self, tiny_dataset, fresh_registry) -> None:
        ds = tiny_dataset
        seeds = ds.spam_sources[:4]
        result = SpamResilientPipeline().rank(
            ds.graph, ds.assignment, spam_seeds=seeds
        )
        assert result.trace is not None
        assert result.trace.name == "pipeline"
        stage_names = [child.name for child in result.trace.children]
        assert stage_names == list(PIPELINE_STAGES)
        assert set(result.timings) == set(PIPELINE_STAGES)
        assert all(v >= 0.0 for v in result.timings.values())
        assert result.stage_seconds("rank") == result.timings["rank"]
        # Solver spans nest under their stages.
        rank_stage = result.trace.children[-1]
        assert any(s.name.startswith("solve:") for s in rank_stage.walk())
        # The run's events ride on its spans, under its run id.
        stage_events = [e for s in result.trace.walk() for e in s.events]
        assert {e["run_id"] for e in stage_events} == {result.run_id}
        assert "solve_start" in {e["kind"] for e in stage_events}

    def test_registry_records_run_and_iterations(
        self, tiny_dataset, fresh_registry
    ) -> None:
        ds = tiny_dataset
        SpamResilientPipeline().rank(
            ds.graph, ds.assignment, spam_seeds=ds.spam_sources[:4]
        )
        assert fresh_registry.counter("repro_pipeline_runs_total").value == 1.0
        stage_hist = fresh_registry.histogram(
            "repro_pipeline_stage_seconds", labelnames=("stage",)
        )
        for stage in PIPELINE_STAGES:
            assert stage_hist.labels(stage=stage).count == 1
        snapshot = fresh_registry.snapshot()
        assert snapshot['repro_solver_iterations{label="sr-sourcerank"}:count'] == 1.0
        assert snapshot['repro_solver_iterations{label="spam-proximity"}:count'] == 1.0

    def test_explicit_kappa_skips_proximity_but_keeps_spans(
        self, tiny_dataset, fresh_registry
    ) -> None:
        from repro.throttle import ThrottleVector

        ds = tiny_dataset
        kappa = ThrottleVector.zeros(ds.n_sources)
        result = SpamResilientPipeline().rank(ds.graph, ds.assignment, kappa=kappa)
        names = [child.name for child in result.trace.children]
        assert names == list(PIPELINE_STAGES)
        proximity_span = result.trace.children[2]
        assert proximity_span.meta.get("skipped")

    def test_pipeline_threads_progress_to_both_walks(
        self, tiny_dataset, fresh_registry
    ) -> None:
        # The pipeline's span opens under the ambient tracer, and both
        # walks' solve spans (with residual curves) nest under it.
        ds = tiny_dataset
        tracer = Tracer()
        with tracer.activate():
            result = SpamResilientPipeline().rank(
                ds.graph, ds.assignment, spam_seeds=ds.spam_sources[:4]
            )
        assert tracer.roots == [result.trace]
        assert result.run_id == tracer.run_id
        labels = {s.name: s.meta for s in solve_spans(tracer)}
        assert set(labels) == {"solve:spam-proximity", "solve:sr-sourcerank"}
        assert all(attrs["residuals"] for attrs in labels.values())

    def test_own_tracer_holds_every_run_and_leaves_no_file_open(
        self, tiny_dataset, tmp_path, fresh_registry
    ) -> None:
        ds = tiny_dataset
        path = tmp_path / "events.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with SpamResilientPipeline(
                observability=ObservabilityParams(events_path=str(path))
            ) as pipe:
                first = pipe.rank(ds.graph, ds.assignment)
            second = pipe.rank(ds.graph, ds.assignment)  # after close()
            del pipe
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        assert first.run_id == second.run_id
        events = read_events(path)
        assert [e["kind"] for e in events].count("pipeline_end") == 2
        assert {e["run_id"] for e in events} == {first.run_id}


class TestExport:
    def test_payload_combines_all_sources(self, tiny_dataset, fresh_registry) -> None:
        ds = tiny_dataset
        tracer = Tracer()
        with tracer.activate():
            result = SpamResilientPipeline().rank(
                ds.graph, ds.assignment, spam_seeds=ds.spam_sources[:4]
            )
        payload = build_metrics_payload(
            tracer, root=result.trace, meta={"k": "v"}
        )
        assert payload["meta"] == {"k": "v", "run_id": tracer.run_id}
        assert "repro_pipeline_runs_total" in payload["metrics"]
        assert payload["trace"]["name"] == "pipeline"
        assert payload["solvers"]["runs"]
        assert payload["events"] == tracer.events()
        assert build_metrics_payload(meta={"k": "v"}).keys() == {
            "generator",
            "meta",
            "metrics",
        }

    def test_write_metrics_json_and_prom(self, tmp_path, fresh_registry) -> None:
        get_registry().counter("repro_demo_total", "demo").inc()
        json_path = write_metrics(tmp_path / "m.json")
        payload = json.loads(json_path.read_text())
        assert payload["metrics"]["repro_demo_total"]["samples"][0]["value"] == 1.0
        prom_path = write_metrics(tmp_path / "m.prom")
        assert "repro_demo_total 1\n" in prom_path.read_text()

    @pytest.mark.parametrize("name", ["m.json", "m.prom"])
    def test_write_metrics_creates_missing_parent(
        self, tmp_path, fresh_registry, name
    ) -> None:
        get_registry().counter("repro_demo_total", "demo").inc()
        path = write_metrics(tmp_path / "new" / "sub" / name)
        assert "repro_demo_total" in path.read_text()

    def test_tracer_export_shape(self) -> None:
        tracer = Tracer()
        with tracer.span("a"):
            pass
        payload = build_metrics_payload(tracer)
        assert payload["trace"]["spans"][0]["name"] == "a"
        assert payload["solvers"] == {"runs": [], "iteration_counts": {}}


class TestConvergenceSummary:
    def test_summary_mentions_iterations_and_tail(self) -> None:
        info = ConvergenceInfo(True, 7, 5e-10, 1e-9, (1e-2, 1e-4, 1e-6, 1e-8, 2e-9, 5e-10))
        text = info.convergence_summary()
        assert "converged in 7 iterations" in text
        assert "5.00e-10" in text
        # Only the last five curve points are shown.
        assert "1.00e-02" not in text
        assert "1.00e-04" in text

    def test_non_converged_summary(self) -> None:
        info = ConvergenceInfo(False, 3, 0.5, 1e-9, (0.9, 0.7, 0.5))
        assert "did NOT converge" in info.convergence_summary()

    def test_ranking_result_delegates(self, triangle_graph) -> None:
        result = pagerank(triangle_graph)
        assert result.convergence_summary() == (
            result.convergence.convergence_summary()
        )
        assert "converged" in repr(result)

    def test_reporting_helpers(self, triangle_graph) -> None:
        result = pagerank(triangle_graph)
        row = convergence_row(result)
        assert row["label"] == "pagerank"
        assert row["converged"] == "yes"
        text = format_convergence([result], title="demo")
        assert text.startswith("demo")
        assert "pagerank:" in text


class TestCli:
    def test_rank_metrics_out_and_trace(
        self, tmp_path, capsys, fresh_registry
    ) -> None:
        out = tmp_path / "m.json"
        code = main(
            ["rank", "--dataset", "tiny", "--metrics-out", str(out), "--trace"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "trace:" in captured
        assert "pipeline:" in captured

        payload = json.loads(out.read_text())
        # Per-stage spans.
        trace = payload["trace"]
        assert trace["name"] == "pipeline"
        assert [c["name"] for c in trace["children"]] == list(PIPELINE_STAGES)
        # Per-solver iteration counts and residual curves.
        runs = payload["solvers"]["runs"]
        assert runs, "expected solver telemetry runs"
        for run in runs:
            assert run["iterations"] >= 1
            assert len(run["residuals"]) == run["iterations"]
        assert payload["solvers"]["iteration_counts"]
        # Registry metrics present.
        assert "repro_pipeline_runs_total" in payload["metrics"]
        # One run id across the document and its events.
        assert payload["events"]
        assert {e["run_id"] for e in payload["events"]} == {
            payload["meta"]["run_id"]
        }

    def test_figures_fast_with_metrics_out(
        self, tmp_path, capsys, fresh_registry
    ) -> None:
        out = tmp_path / "figures.json"
        code = main(
            ["figures", "fig2", "--fast", "--metrics-out", str(out), "--trace"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [s["name"] for s in payload["trace"]["spans"]] == ["fig2"]

    def test_rank_profile_prints_every_span(self, capsys, fresh_registry) -> None:
        assert main(["rank", "--dataset", "tiny", "--profile"]) == 0
        out = capsys.readouterr().out
        section = out.split("profile (wall / CPU per stage):")[1]
        assert "  pipeline:" in section and " calls" in section
        for stage in PIPELINE_STAGES:
            assert f"  {stage}: " in section
