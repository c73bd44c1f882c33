"""Resilience layer: guardrails, fallback chains, checkpoint/resume, faults.

A production ranking service cannot afford to lose a long Eq. 3 power
iteration to a single NaN or a killed process.
This package makes every iterative solve in the library survivable:

* :mod:`~repro.resilience.guards` — per-iteration numerical guardrails
  (NaN/Inf iterates, sustained divergence, stagnation above tolerance,
  wall-clock deadline) configured through
  :class:`~repro.config.ResilienceParams` and enforced inside
  :func:`repro.linalg.iterate.iterate_to_fixpoint`, raising typed
  :class:`~repro.errors.ConvergenceError` subclasses;
* :mod:`~repro.resilience.fallback` — :class:`FallbackChain` warm-starts
  the next registered solver from the last finite iterate when a guard
  trips, recording per-attempt provenance on the result;
* :mod:`~repro.resilience.checkpoint` — atomic (tmp+rename) solve
  checkpoints and content-hash-keyed pipeline-stage checkpoints, wired
  to the CLI as ``--checkpoint-dir`` / ``--resume``;
* :mod:`~repro.resilience.faults` — the seeded, deterministic
  fault-injection harness the resilience tests and
  ``benchmarks/bench_resilience.py`` drive.

Recoveries surface in the metrics registry as
``repro_guard_trips_total{kind=...}``, ``repro_fallbacks_total{kind=...}``
and ``repro_checkpoint_resumes_total{kind=...}``.  See the "Resilience"
section of ``docs/architecture.md``.
"""

from .checkpoint import (
    PipelineCheckpointer,
    SolveCheckpointer,
    SolveState,
    content_key,
)
from .fallback import FallbackChain, SolveAttempt, record_fallback
from .faults import (
    FaultyOperator,
    SimulatedCrash,
    crash_at_iteration,
)
from .guards import SolveGuard, record_guard_trip

__all__ = [
    "SolveGuard",
    "record_guard_trip",
    "FallbackChain",
    "SolveAttempt",
    "record_fallback",
    "SolveCheckpointer",
    "SolveState",
    "PipelineCheckpointer",
    "content_key",
    "FaultyOperator",
    "SimulatedCrash",
    "crash_at_iteration",
]
