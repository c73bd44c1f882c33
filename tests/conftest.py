"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RankingParams
from repro.datasets import load_dataset
from repro.graph import PageGraph
from repro.linalg.registry import solver_registry
from repro.sources import SourceAssignment, SourceGraph


@pytest.fixture(autouse=True)
def _restore_solver_registry():
    """Solvers a test registers must not leak into the tests after it."""
    saved = dict(solver_registry._solvers)
    yield
    solver_registry._solvers.clear()
    solver_registry._solvers.update(saved)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """Session-wide seeded generator for tests that need randomness."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(scope="session")
def small_graph() -> PageGraph:
    """A small deterministic random graph (500 nodes, ~4k edges)."""
    gen = np.random.default_rng(42)
    n = 500
    return PageGraph.from_edges(
        gen.integers(0, n, 4000), gen.integers(0, n, 4000), n
    )


@pytest.fixture(scope="session")
def small_assignment(small_graph: PageGraph) -> SourceAssignment:
    """Dense 40-source assignment for the small graph."""
    gen = np.random.default_rng(43)
    ids = gen.integers(0, 40, small_graph.n_nodes)
    ids[:40] = np.arange(40)  # force density
    return SourceAssignment(ids.astype(np.int64))


@pytest.fixture(scope="session")
def small_source_graph(
    small_graph: PageGraph, small_assignment: SourceAssignment
) -> SourceGraph:
    """Consensus-weighted source graph over the small graph."""
    return SourceGraph.from_page_graph(small_graph, small_assignment)


@pytest.fixture(scope="session")
def tiny_dataset():
    """The registry's tiny dataset (with planted spam)."""
    return load_dataset("tiny")


@pytest.fixture(scope="session")
def fast_params() -> RankingParams:
    """Looser tolerance for tests where exact convergence is not the point."""
    return RankingParams(tolerance=1e-10, max_iter=500)


@pytest.fixture
def triangle_graph() -> PageGraph:
    """The 3-cycle: a tiny graph with a known uniform stationary vector."""
    return PageGraph.from_edges([0, 1, 2], [1, 2, 0], 3)
