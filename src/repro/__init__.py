"""repro — Spam-Resilient Web Rankings via Influence Throttling.

A full reproduction of Caverlee, Webb & Liu (IPPS 2007): the
Spam-Resilient SourceRank ranking model with source-consensus edge
weighting and influence throttling, plus every substrate it needs —
page/source graph machinery, compressed graph storage, ranking solvers,
spam-proximity throttle assignment, the Section 2 attack models, the
Section 4 closed-form analysis, synthetic dataset analogues of the
paper's three crawls, and the Section 6 experiment harness.

Quickstart::

    import numpy as np
    from repro import SpamResilientPipeline, load_dataset, sample_seed_set

    ds = load_dataset("uk2002_like")                    # synthetic web + planted spam
    seeds = sample_seed_set(ds.spam_sources, 0.10,      # the defender knows ~10 %
                            np.random.default_rng(0))
    result = SpamResilientPipeline().rank(ds.graph, ds.assignment,
                                          spam_seeds=seeds)
    print(result.top_sources(10))

See DESIGN.md for the module map and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .audit import (
    InvariantAuditor,
    InvariantViolation,
    run_differential_oracle,
    run_metamorphic_suite,
)
from .config import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_ITER,
    DEFAULT_TOLERANCE,
    AuditParams,
    ExperimentParams,
    RankingParams,
    ResilienceParams,
    SpamProximityParams,
    ThrottleParams,
)
from .core.pipeline import PipelineResult, SpamResilientPipeline
from .datasets import (
    DATASETS,
    LoadedDataset,
    SpamPlantConfig,
    SyntheticWebConfig,
    generate_web,
    load_dataset,
    plant_spam_communities,
    sample_seed_set,
)
from .errors import (
    AuditError,
    CodecError,
    ConfigError,
    ConvergenceError,
    DatasetError,
    DivergenceError,
    EmptyGraphError,
    GraphError,
    InjectedFaultError,
    NodeIndexError,
    NumericalError,
    ObservabilityError,
    ReproError,
    ScenarioError,
    SolveDeadlineError,
    SourceAssignmentError,
    StagnationError,
    ThrottleError,
)
from .observability import MetricsRegistry, Tracer, get_registry
from .economics import AttackPlanner, CostModel, portfolio_value, traffic_share
from .graph import GraphBuilder, PageGraph
from .linalg import (
    CsrOperator,
    ReversedOperator,
    ThrottledOperator,
    TransitionOperator,
    available_solvers,
    register_solver,
)
from .resilience import (
    FallbackChain,
    PipelineCheckpointer,
    SolveAttempt,
    SolveCheckpointer,
)
from .serving import CircuitBreaker, RankingService, SnapshotStore
from .ranking import (
    RankingResult,
    blockrank,
    hits,
    pagerank,
    sourcerank,
    spam_resilient_sourcerank,
    trustrank,
)
from .sources import SourceAssignment, SourceGraph
from .spam import (
    CrossSourceAttack,
    HijackAttack,
    HoneypotAttack,
    IntraSourceAttack,
    LinkExchangeAttack,
    LinkFarmAttack,
    evaluate_attack,
)
from .throttle import ThrottleVector, assign_kappa, spam_proximity, throttle_transform

__version__ = "1.0.0"

__all__ = [
    # configuration
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_ITER",
    "DEFAULT_TOLERANCE",
    "RankingParams",
    "ResilienceParams",
    "AuditParams",
    "ThrottleParams",
    "SpamProximityParams",
    "ExperimentParams",
    # errors
    "ReproError",
    "GraphError",
    "EmptyGraphError",
    "NodeIndexError",
    "SourceAssignmentError",
    "ThrottleError",
    "ConvergenceError",
    "NumericalError",
    "DivergenceError",
    "StagnationError",
    "SolveDeadlineError",
    "AuditError",
    "InjectedFaultError",
    "ConfigError",
    "DatasetError",
    "CodecError",
    "ScenarioError",
    "ObservabilityError",
    # observability
    "MetricsRegistry",
    "Tracer",
    "get_registry",
    # graph substrate
    "PageGraph",
    "GraphBuilder",
    # source view
    "SourceAssignment",
    "SourceGraph",
    # linear-operator layer
    "TransitionOperator",
    "CsrOperator",
    "ThrottledOperator",
    "ReversedOperator",
    "register_solver",
    "available_solvers",
    # rankings
    "RankingResult",
    "pagerank",
    "sourcerank",
    "spam_resilient_sourcerank",
    "hits",
    "trustrank",
    "blockrank",
    # economics (the paper's future-work model)
    "CostModel",
    "AttackPlanner",
    "portfolio_value",
    "traffic_share",
    # throttling
    "ThrottleVector",
    "throttle_transform",
    "spam_proximity",
    "assign_kappa",
    # attacks
    "IntraSourceAttack",
    "CrossSourceAttack",
    "LinkFarmAttack",
    "LinkExchangeAttack",
    "HijackAttack",
    "HoneypotAttack",
    "evaluate_attack",
    # datasets
    "SyntheticWebConfig",
    "SpamPlantConfig",
    "generate_web",
    "plant_spam_communities",
    "sample_seed_set",
    "DATASETS",
    "LoadedDataset",
    "load_dataset",
    # resilience
    "FallbackChain",
    "SolveAttempt",
    "SolveCheckpointer",
    "PipelineCheckpointer",
    # serving
    "RankingService",
    "SnapshotStore",
    "CircuitBreaker",
    # correctness auditing
    "InvariantAuditor",
    "InvariantViolation",
    "run_differential_oracle",
    "run_metamorphic_suite",
    # pipeline
    "SpamResilientPipeline",
    "PipelineResult",
    "__version__",
]
