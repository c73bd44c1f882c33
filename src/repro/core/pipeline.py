"""The full Spam-Resilient SourceRank pipeline.

:class:`SpamResilientPipeline` wires the paper's components end to end:

1. group pages into sources (host assignment or caller-provided);
2. build the consensus-weighted source graph (Sections 3.1–3.2);
3. propagate spam proximity from a seed set (Section 5);
4. assign the throttling vector κ (Section 6.2's top-k heuristic);
5. compute Spam-Resilient SourceRank (Section 3.4), plus the baselines
   (PageRank, unthrottled SourceRank) for comparison.

This is the object a downstream user adopts; the quickstart example is a
fifteen-line use of it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from ..audit.invariants import InvariantAuditor
from ..config import (
    GraphStoreParams,
    ObservabilityParams,
    RankingParams,
    SpamProximityParams,
    ThrottleParams,
)
from ..errors import ConfigError
from ..graph.pagegraph import PageGraph
from ..linalg.iterate import ConvergenceInfo
from ..linalg.operator import (
    BlockedOperator,
    CsrOperator,
    ReversedOperator,
    ThrottledOperator,
)
from ..linalg.registry import solver_registry
from ..logging_utils import get_logger
from ..observability.metrics import (
    DEFAULT_ITERATION_BUCKETS,
    get_registry,
)
from ..observability.tracing import SpanRecord, Tracer, current_tracer, emit
from ..ranking.base import RankingResult
from ..ranking.pagerank import pagerank
from ..ranking.sourcerank import sourcerank
from ..ranking.srsourcerank import spam_resilient_sourcerank
from ..resilience.checkpoint import PipelineCheckpointer, content_key
from ..resilience.fallback import FallbackChain
from ..sources.assignment import SourceAssignment
from ..sources.sourcegraph import SourceGraph
from ..throttle.spam_proximity import spam_proximity
from ..throttle.strategies import assign_kappa
from ..throttle.vector import ThrottleVector

__all__ = [
    "SpamResilientPipeline",
    "PipelineResult",
    "PIPELINE_STAGES",
    "operator_from_store",
]

_logger = get_logger(__name__)

#: The five pipeline stages, in execution order; each becomes one trace span.
PIPELINE_STAGES: tuple[str, ...] = (
    "assignment",
    "source_graph",
    "proximity",
    "kappa",
    "rank",
)


def operator_from_store(
    store: object,
    params: GraphStoreParams | None = None,
) -> BlockedOperator:
    """Open a sharded graph store as an out-of-core transition operator.

    ``store`` is a :class:`~repro.webgraph.store.ShardedGraphStore` or a
    path to one on disk; ``params`` carries the block-cache bound
    (defaults when omitted).  The returned
    :class:`~repro.linalg.BlockedOperator` owns its block cache — close
    it (or use it as a context manager) when done.
    """
    params = params or GraphStoreParams()
    return BlockedOperator(store, cache_blocks=params.cache_blocks)


class _SharedOperators:
    """One web's source graph plus the lazily-built operators over it.

    The pipeline builds the source graph once per ``(graph, assignment)``
    pair and shares a single base :class:`CsrOperator` (SR-SourceRank and
    the baseline SourceRank walk the same unthrottled matrix) and a single
    :class:`ReversedOperator` (spam proximity) across every solve against
    that web.  Holds strong references to the inputs so the identity keys
    of the pipeline's cache stay valid.
    """

    __slots__ = ("graph", "assignment", "source_graph", "_base", "_reversed")

    def __init__(
        self,
        graph: PageGraph,
        assignment: SourceAssignment,
        source_graph: SourceGraph,
    ) -> None:
        self.graph = graph
        self.assignment = assignment
        self.source_graph = source_graph
        self._base: CsrOperator | None = None
        self._reversed: ReversedOperator | None = None

    @property
    def base(self) -> CsrOperator:
        """The unthrottled source-matrix operator, built on first use."""
        if self._base is None:
            self._base = CsrOperator(self.source_graph.matrix)
        return self._base

    @property
    def reversed(self) -> ReversedOperator:
        """The reversed-walk operator for spam proximity, built on first use."""
        if self._reversed is None:
            self._reversed = ReversedOperator(self.source_graph.matrix)
        return self._reversed


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """Everything the pipeline computed, for inspection and evaluation.

    ``trace`` is the run's span tree (root ``"pipeline"`` with one child
    per stage in :data:`PIPELINE_STAGES`, solver spans nested below);
    ``timings`` maps stage name to wall seconds; ``run_id`` is the id of
    the tracer the run was recorded on.
    """

    source_graph: SourceGraph
    proximity: RankingResult | None
    kappa: ThrottleVector
    scores: RankingResult
    trace: SpanRecord | None = None
    timings: dict[str, float] = field(default_factory=dict)
    run_id: str | None = None

    def top_sources(self, k: int = 10) -> np.ndarray:
        """Ids of the k best-ranked sources."""
        return self.scores.top(k)

    def stage_seconds(self, stage: str) -> float:
        """Wall seconds spent in one named stage of this run."""
        if stage not in self.timings:
            raise ConfigError(
                f"unknown stage {stage!r}; run recorded {sorted(self.timings)}"
            )
        return self.timings[stage]


class SpamResilientPipeline:
    """Configure once, rank any web.

    Parameters
    ----------
    ranking:
        Mixing parameter / stopping rule for all walks (paper defaults
        when omitted).
    throttle:
        κ-assignment strategy (paper's top-k default when omitted).
    proximity:
        Spam-proximity walk parameters.
    weighting:
        Source-edge weighting: ``"consensus"`` (paper) or ``"uniform"``.
    full_throttle:
        κ=1 semantics: ``"dangling"`` (default — fully-throttled sources
        pass nothing to anyone including themselves, the behaviour the
        paper's Fig. 5 demonstrates) or ``"self"`` (the literal Section
        3.3 transform analysed in Section 4; see
        :mod:`repro.throttle.transform`).
    checkpoint_dir:
        When set, completed proximity/rank stages are checkpointed under
        this directory, keyed on a content hash of the inputs, and the
        iterative solves write periodic atomic solve checkpoints there
        (see :mod:`repro.resilience.checkpoint`).
    resume:
        When True (and ``checkpoint_dir`` is set), stages and solves
        whose checkpoints match the current inputs are resumed instead
        of recomputed.

    Notes
    -----
    When ``ranking.resilience.fallback_solvers`` is non-empty, the
    configured solver is wrapped in a
    :class:`~repro.resilience.FallbackChain` (primary solver first), so
    any guard trip during the rank or proximity stage fails over with a
    warm start instead of aborting the run.

    When ``ranking.audit`` is set, stage boundaries are audited by an
    :class:`~repro.audit.invariants.InvariantAuditor` (row-stochastic
    ``T'``, κ domain, ``T''`` diagonal/row mass, σ a distribution) and
    the power solves check per-iteration mass conservation; violations
    increment ``repro_audit_violations_total`` and, in strict mode,
    raise :class:`~repro.errors.AuditError`.

    The pipeline is a context manager: ``with SpamResilientPipeline() as
    pipe: ...`` drops the cached source graph and its operators even when
    a stage raises.

    Examples
    --------
    >>> from repro.datasets import load_dataset, sample_seed_set
    >>> import numpy as np
    >>> ds = load_dataset("tiny")
    >>> pipe = SpamResilientPipeline()
    >>> seeds = sample_seed_set(ds.spam_sources, 0.25, np.random.default_rng(0))
    >>> result = pipe.rank(ds.graph, ds.assignment, spam_seeds=seeds)
    >>> result.scores.n == ds.n_sources
    True
    """

    def __init__(
        self,
        ranking: RankingParams | None = None,
        throttle: ThrottleParams | None = None,
        proximity: SpamProximityParams | None = None,
        *,
        weighting: str = "consensus",
        full_throttle: str = "dangling",
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        observability: ObservabilityParams | None = None,
    ) -> None:
        self.ranking = ranking or RankingParams()
        self.throttle = throttle or ThrottleParams()
        self.proximity = proximity or SpamProximityParams()
        self.observability = observability or ObservabilityParams()
        obs = self.observability
        self.tracer: Tracer | None = (
            Tracer(events_path=obs.events_path, profile=obs.profile)
            if obs.enabled
            else None
        )
        if weighting not in ("consensus", "uniform"):
            raise ConfigError(
                f"weighting must be 'consensus' or 'uniform', got {weighting!r}"
            )
        if full_throttle not in ("self", "dangling"):
            raise ConfigError(
                f"full_throttle must be 'self' or 'dangling', got {full_throttle!r}"
            )
        self.weighting = weighting
        self.full_throttle = full_throttle
        self._shared: tuple[tuple[int, int], _SharedOperators] | None = None
        self._checkpointer = (
            PipelineCheckpointer(checkpoint_dir, resume=resume)
            if checkpoint_dir is not None
            else None
        )
        self._auditor = InvariantAuditor(self.ranking.audit)
        resilience = self.ranking.resilience
        if resilience is not None and resilience.fallback_solvers:
            chain = FallbackChain(
                (self.ranking.solver, *resilience.fallback_solvers)
            )
            self.ranking = self.ranking.with_(solver=chain.register())

    # ------------------------------------------------------------------
    def build_source_graph(
        self, graph: PageGraph, assignment: SourceAssignment
    ) -> SourceGraph:
        """Step 1–2: quotient the page graph under the configured weighting."""
        return SourceGraph.from_page_graph(
            graph, assignment, weighting=self.weighting
        )

    def _shared_operators(
        self, graph: PageGraph, assignment: SourceAssignment
    ) -> _SharedOperators:
        """Source graph + operators for one web, cached across calls.

        A single-entry cache keyed on input identity: ``rank`` followed by
        ``baseline_sourcerank`` on the same web quotients the page graph
        and builds each operator exactly once.  A new ``(graph,
        assignment)`` pair evicts the previous entry.
        """
        key = (id(graph), id(assignment))
        if self._shared is not None and self._shared[0] == key:
            return self._shared[1]
        # Release the previous web's graph and operators before building
        # this one's, so two webs are never held at once.
        self.clear_cache()
        shared = _SharedOperators(
            graph, assignment, self.build_source_graph(graph, assignment)
        )
        self._shared = (key, shared)
        return shared

    def clear_cache(self) -> None:
        """Drop the cached source graph and operators."""
        self._shared = None

    def close(self) -> None:
        """Release all cached resources (alias of :meth:`clear_cache`)."""
        self.clear_cache()

    def __enter__(self) -> "SpamResilientPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @staticmethod
    @contextmanager
    def _stage(tracer: Tracer, name: str) -> Iterator[SpanRecord]:
        """One pipeline stage: a span between ``stage_start``/``stage_end``.

        A stage that raises leaves a ``stage_failed`` event instead of
        ``stage_end``.
        """
        tracer.emit("stage_start", stage=name)
        try:
            with tracer.span(name) as sp:
                yield sp
        except BaseException as exc:
            tracer.emit("stage_failed", stage=name, error=type(exc).__name__)
            raise
        tracer.emit("stage_end", stage=name, seconds=sp.duration)

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _checkpoint_setup(
        self,
        source_graph: SourceGraph,
        assignment: SourceAssignment,
        seeds: np.ndarray | None,
        kappa: ThrottleVector | np.ndarray | None,
    ) -> tuple[str | None, RankingParams, SpamProximityParams]:
        """Run key plus checkpoint-carrying params for one ``rank`` call.

        The key is a content hash of everything that determines the
        output — source-graph CSR arrays, page→source map, seeds or
        explicit κ, and every parameter set — so checkpoints can never be
        replayed onto different inputs.  Without a configured
        ``checkpoint_dir`` this is a no-op returning the plain params.
        """
        if self._checkpointer is None:
            return None, self.ranking, self.proximity
        kappa_part: object = "kappa:computed"
        if kappa is not None:
            values = kappa.kappa if isinstance(kappa, ThrottleVector) else kappa
            kappa_part = np.asarray(values, dtype=np.float64)
        run_key = content_key(
            source_graph.matrix,
            assignment.page_to_source,
            "seeds:none" if seeds is None else seeds,
            kappa_part,
            self.ranking,
            self.throttle,
            self.proximity,
            self.weighting,
            self.full_throttle,
        )
        resilience = self.ranking.resilience
        every = (
            resilience.checkpoint_every
            if resilience is not None and resilience.checkpoint_every
            else 25
        )
        solve_ckpt = self._checkpointer.solve_checkpointer(run_key, every=every)
        return (
            run_key,
            self.ranking.with_(checkpoint=solve_ckpt),
            replace(self.proximity, checkpoint=solve_ckpt),
        )

    _STAGE_FIELDS = ("scores", "iterations", "residual", "tolerance")

    def _load_stage_result(
        self, run_key: str | None, stage: str, label: str
    ) -> RankingResult | None:
        """Rebuild a stage's RankingResult from its checkpoint, if any."""
        if self._checkpointer is None or run_key is None:
            return None
        stored = self._checkpointer.load_stage(run_key, stage, self._STAGE_FIELDS)
        if stored is None:
            return None
        info = ConvergenceInfo(
            converged=True,
            iterations=int(stored["iterations"]),
            residual=float(stored["residual"]),
            tolerance=float(stored["tolerance"]),
        )
        return RankingResult(stored["scores"], info, label=label)

    def _save_stage_result(
        self, run_key: str | None, stage: str, result: RankingResult
    ) -> None:
        """Persist one completed stage's scores + convergence record."""
        if self._checkpointer is None or run_key is None:
            return
        self._checkpointer.save_stage(
            run_key,
            stage,
            scores=result.scores,
            iterations=int(result.convergence.iterations),
            residual=float(result.convergence.residual),
            tolerance=float(result.convergence.tolerance),
        )

    def compute_kappa(
        self,
        source_graph: SourceGraph,
        spam_seeds: np.ndarray | list[int] | None,
    ) -> tuple[RankingResult | None, ThrottleVector]:
        """Steps 3–4: spam proximity (if seeds are known) and κ assignment.

        With no seeds the throttle vector is all-zeros and SR-SourceRank
        degrades to baseline SourceRank — the honest cold-start behaviour.
        """
        if spam_seeds is None or len(np.atleast_1d(np.asarray(spam_seeds))) == 0:
            return None, ThrottleVector.zeros(source_graph.n_sources)
        proximity = spam_proximity(source_graph, spam_seeds, self.proximity)
        kappa = assign_kappa(proximity.scores, self.throttle)
        return proximity, kappa

    def rank(
        self,
        graph: PageGraph,
        assignment: SourceAssignment,
        *,
        spam_seeds: np.ndarray | list[int] | None = None,
        kappa: ThrottleVector | None = None,
    ) -> PipelineResult:
        """Run the full pipeline on a web.

        Parameters
        ----------
        graph, assignment:
            The page graph and its page→source map.
        spam_seeds:
            Ids of known spam *sources* (a small subsample suffices —
            Fig. 5 uses <10 % of ground truth).  Ignored when ``kappa``
            is given explicitly.
        kappa:
            Explicit throttling vector, bypassing spam proximity.

        Notes
        -----
        Every run is traced: the returned
        :attr:`PipelineResult.trace` holds a ``"pipeline"`` span with
        one child per stage (``assignment``, ``source_graph``,
        ``proximity``, ``kappa``, ``rank``) and solver spans nested
        beneath them, and stage timings plus solver iteration counts are
        recorded in the global
        :class:`~repro.observability.metrics.MetricsRegistry`.  The span
        opens under the ambient tracer when one is active (a caller's),
        else under this pipeline's own tracer, else under a fresh one.
        """
        tracer = current_tracer() or self.tracer or Tracer()
        with tracer.activate():
            tracer.emit(
                "pipeline_start",
                pages=int(graph.n_nodes),
                sources=int(assignment.n_sources),
                weighting=self.weighting,
                solver=self.ranking.solver,
            )
            with tracer.span("pipeline") as root:
                with self._stage(tracer, "assignment") as sp:
                    seeds = None
                    if spam_seeds is not None:
                        seeds = np.atleast_1d(
                            np.asarray(spam_seeds, dtype=np.int64)
                        )
                    sp.meta.update(
                        pages=int(graph.n_nodes),
                        sources=int(assignment.n_sources),
                        seeds=0 if seeds is None else int(seeds.size),
                    )
                with self._stage(tracer, "source_graph") as sp:
                    shared = self._shared_operators(graph, assignment)
                    source_graph = shared.source_graph
                    sp.meta["edges"] = int(source_graph.matrix.nnz)
                    if self._auditor.enabled:
                        self._auditor.audit_transition(source_graph.matrix)
                        sp.meta["audited"] = True
                run_key, ranking_params, proximity_params = (
                    self._checkpoint_setup(
                        source_graph, assignment, seeds, kappa
                    )
                )
                if kappa is not None:
                    proximity = None
                    if not isinstance(kappa, ThrottleVector):
                        kappa = ThrottleVector(kappa)
                    with self._stage(tracer, "proximity") as sp:
                        sp.meta["skipped"] = "explicit kappa"
                    with self._stage(tracer, "kappa") as sp:
                        sp.meta["provided"] = True
                else:
                    with self._stage(tracer, "proximity") as sp:
                        if seeds is None or seeds.size == 0:
                            proximity = None
                            sp.meta["skipped"] = "no spam seeds"
                        else:
                            proximity = self._load_stage_result(
                                run_key, "proximity", "spam-proximity"
                            )
                            if proximity is not None:
                                sp.meta["resumed"] = True
                            else:
                                proximity = spam_proximity(
                                    source_graph,
                                    seeds,
                                    proximity_params,
                                    operator=shared.reversed,
                                )
                                self._save_stage_result(
                                    run_key, "proximity", proximity
                                )
                            sp.meta["iterations"] = (
                                proximity.convergence.iterations
                            )
                            if self._auditor.enabled:
                                self._auditor.audit_result(
                                    proximity, subject="spam-proximity"
                                )
                    with self._stage(tracer, "kappa") as sp:
                        if proximity is None:
                            kappa = ThrottleVector.zeros(
                                source_graph.n_sources
                            )
                        else:
                            kappa = assign_kappa(
                                proximity.scores, self.throttle
                            )
                        sp.meta["throttled"] = int(
                            kappa.fully_throttled().size
                        )
                if self._auditor.enabled:
                    # Audit the throttled walk the rank stage is about to
                    # solve with — the exact diag(s)·T' + diag(c) algebra
                    # the lazy operator applies, not a recomputation.
                    with self._stage(tracer, "audit") as sp:
                        self._auditor.audit_kappa(
                            kappa, n=source_graph.n_sources
                        )
                        throttled = ThrottledOperator(
                            shared.base, kappa, full_throttle=self.full_throttle
                        )
                        self._auditor.audit_throttled(throttled)
                        sp.meta["checks"] = "kappa,throttled"
                with self._stage(tracer, "rank") as sp:
                    scores = self._load_stage_result(
                        run_key, "rank", "sr-sourcerank"
                    )
                    if scores is not None:
                        sp.meta["resumed"] = True
                    else:
                        scores = spam_resilient_sourcerank(
                            source_graph,
                            kappa,
                            ranking_params,
                            full_throttle=self.full_throttle,
                            operator=shared.base,
                        )
                        self._save_stage_result(run_key, "rank", scores)
                    sp.meta["iterations"] = scores.convergence.iterations
                    if self._auditor.enabled:
                        self._auditor.audit_result(
                            scores, subject="sr-sourcerank"
                        )
            timings = {child.name: child.duration for child in root.children}
            self._record_run(root, timings, proximity, scores)
            tracer.emit(
                "pipeline_end",
                seconds=root.duration,
                converged=bool(scores.convergence.converged),
                iterations=int(scores.convergence.iterations),
            )
        return PipelineResult(
            source_graph=source_graph,
            proximity=proximity,
            kappa=kappa,
            scores=scores,
            trace=root,
            timings=timings,
            run_id=tracer.run_id,
        )

    @staticmethod
    def _record_run(
        root: SpanRecord,
        timings: dict[str, float],
        proximity: RankingResult | None,
        scores: RankingResult,
    ) -> None:
        """Publish one run's stage timings to the global metrics registry."""
        registry = get_registry()
        registry.counter(
            "repro_pipeline_runs_total",
            "Completed SpamResilientPipeline.rank calls",
        ).inc()
        stage_seconds = registry.histogram(
            "repro_pipeline_stage_seconds",
            "Wall time per pipeline stage",
            labelnames=("stage",),
        )
        for stage, seconds in timings.items():
            stage_seconds.labels(stage=stage).observe(seconds)
        iterations = registry.histogram(
            "repro_solver_iterations",
            "Iterations per iterative solve",
            labelnames=("label",),
            buckets=DEFAULT_ITERATION_BUCKETS,
        )
        if proximity is not None:
            iterations.labels(label=proximity.label or "spam-proximity").observe(
                proximity.convergence.iterations
            )
        iterations.labels(label=scores.label or "sr-sourcerank").observe(
            scores.convergence.iterations
        )
        _logger.info(
            "pipeline ranked %d sources in %.3f s (%s)",
            scores.n,
            root.duration,
            ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in timings.items()),
        )

    # ------------------------------------------------------------------
    # Out-of-core path
    # ------------------------------------------------------------------
    def rank_store(
        self,
        store: object,
        *,
        kappa: ThrottleVector | np.ndarray | None = None,
        store_params: GraphStoreParams | None = None,
    ) -> RankingResult:
        """Rank straight from a sharded on-disk source graph.

        The out-of-core sibling of :meth:`rank`: the source matrix is
        never materialized — blocks stream from the
        :class:`~repro.webgraph.store.ShardedGraphStore` through a
        :class:`~repro.linalg.BlockedOperator`, the throttle transform
        stays lazy on top of it, and peak memory is bounded by
        O(cached blocks + iterate).

        The store already *is* the source graph (rows row-normalized at
        decode time), so the assignment/source-graph/proximity stages do
        not apply; pass an explicit ``kappa`` (``None`` degrades to
        baseline SourceRank, matching :meth:`compute_kappa`'s cold-start
        behaviour).

        Parameters
        ----------
        store:
            A :class:`~repro.webgraph.store.ShardedGraphStore` or path to
            one.  A store passed by object stays open and owned by the
            caller; a path is opened and closed here.
        kappa:
            Explicit throttling vector over the store's sources.
        store_params:
            Block-cache bound for the blocked operator
            (:class:`~repro.config.GraphStoreParams` defaults when
            omitted).
        """
        base = operator_from_store(store, store_params)
        try:
            if kappa is None:
                kappa = ThrottleVector.zeros(base.n)
            elif not isinstance(kappa, ThrottleVector):
                kappa = ThrottleVector(kappa)
            throttled = ThrottledOperator(
                base, kappa, full_throttle=self.full_throttle
            )
            # No tracer is started here: with none ambient and none of
            # this pipeline's own, the solve runs untraced.
            tracer = current_tracer() or self.tracer
            with nullcontext() if tracer is None else tracer.activate():
                emit(
                    "pipeline_store_rank",
                    sources=int(base.n),
                    blocks=int(base.store.n_blocks),
                    kernel=base.kernel,
                    solver=self.ranking.solver,
                )
                return solver_registry.solve(
                    throttled,
                    self.ranking,
                    solver=self.ranking.solver,
                    label="sr-sourcerank:store",
                )
        finally:
            base.close()

    # ------------------------------------------------------------------
    # Baselines for comparison
    # ------------------------------------------------------------------
    def baseline_sourcerank(
        self,
        graph: PageGraph | None = None,
        assignment: SourceAssignment | None = None,
        *,
        source_graph: SourceGraph | None = None,
    ) -> RankingResult:
        """Unthrottled SourceRank over the same source graph.

        Reuses the source graph and base operator a prior :meth:`rank`
        call on the same ``(graph, assignment)`` pair already built,
        instead of re-quotienting the page graph.  Alternatively pass a
        prebuilt ``source_graph`` (e.g. :attr:`PipelineResult.source_graph`)
        directly.
        """
        if source_graph is not None:
            return sourcerank(source_graph, self.ranking)
        if graph is None or assignment is None:
            raise ConfigError(
                "baseline_sourcerank needs a (graph, assignment) pair or a "
                "prebuilt source_graph"
            )
        shared = self._shared_operators(graph, assignment)
        return sourcerank(
            shared.source_graph, self.ranking, operator=shared.base
        )

    def baseline_pagerank(self, graph: PageGraph) -> RankingResult:
        """Page-level PageRank (Eq. 1)."""
        return pagerank(graph, self.ranking)
