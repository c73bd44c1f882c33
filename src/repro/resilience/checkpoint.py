"""Checkpoint/resume for long solves and pipeline stages.

Two cooperating pieces:

* :class:`SolveCheckpointer` — periodic snapshots of a single iterative
  solve (the iterate vector plus the iteration count), written atomically
  (tmp + ``os.replace``) so a kill mid-write can never leave a torn file.
  Installed via ``RankingParams.checkpoint``; the shared iteration engine
  saves every ``every`` iterations and, when ``resume`` is set, restarts
  from the stored iterate instead of the cold start.
* :class:`PipelineCheckpointer` — per-stage outputs of a
  :class:`~repro.core.pipeline.SpamResilientPipeline` run, keyed on a
  content hash of the inputs (:func:`content_key` over the source-graph
  CSR arrays, seeds, and parameter reprs), so a resumed run skips every
  stage whose inputs are byte-identical.

Checkpoint files are :mod:`repro.container` files with a format-version
field; a tampered or truncated checkpoint is *ignored* (with a warning),
never trusted — a bad checkpoint must cost a recompute, not a crash or a
wrong σ.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Mapping, Set
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..container import read_container, remove, write_container
from ..errors import CodecError
from ..logging_utils import get_logger
from ..observability.tracing import emit as emit_event
from ..observability.metrics import get_registry

__all__ = [
    "content_key",
    "SolveState",
    "SolveCheckpointer",
    "PipelineCheckpointer",
]

_logger = get_logger(__name__)

_CHECKPOINT_FORMAT_VERSION = 2
_TAG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _record_resume(kind: str) -> None:
    get_registry().counter(
        "repro_checkpoint_resumes_total",
        "Solves/stages resumed from a checkpoint, by kind",
        labelnames=("kind",),
    ).labels(kind=kind).inc()


def content_key(*parts: object) -> str:
    """Deterministic sha256 hex digest of a mixed bag of inputs.

    NumPy arrays hash their raw bytes (plus dtype/shape so reinterpreted
    buffers cannot collide); scipy CSR matrices hash their three arrays;
    mappings and sets are canonicalized (their entries hashed and sorted)
    so two dicts or sets holding the same items produce the same key
    regardless of insertion order — pipeline checkpoints keyed on a
    param dict must not spuriously miss after a reordering; lists and
    tuples recurse element-wise (preserving order) so nested containers
    canonicalize too.  Everything else hashes its ``repr``.
    """
    digest = hashlib.sha256()
    for part in parts:
        _digest_part(digest, part)
    return digest.hexdigest()


def _digest_part(digest, part: object) -> None:
    """Feed one canonicalized part into ``digest`` (see :func:`content_key`)."""
    if hasattr(part, "indptr") and hasattr(part, "indices"):
        digest.update(b"csr:")
        for arr in (part.indptr, part.indices, getattr(part, "data", None)):
            if arr is not None:
                digest.update(content_key(np.asarray(arr)).encode())
        return
    if isinstance(part, np.ndarray):
        arr = np.ascontiguousarray(part)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
        return
    if isinstance(part, Mapping):
        digest.update(b"map:")
        for key_hash, value_hash in sorted(
            (content_key(key), content_key(value)) for key, value in part.items()
        ):
            digest.update(key_hash.encode())
            digest.update(value_hash.encode())
        digest.update(b"\x00")
        return
    if isinstance(part, (Set, frozenset)):
        digest.update(b"set:")
        for item_hash in sorted(content_key(item) for item in part):
            digest.update(item_hash.encode())
        digest.update(b"\x00")
        return
    if isinstance(part, (list, tuple)):
        digest.update(b"seq:")
        for item in part:
            _digest_part(digest, item)
        digest.update(b"\x00")
        return
    digest.update(repr(part).encode())
    digest.update(b"\x00")


def _load(path: Path, required: tuple[str, ...]) -> dict | None:
    """The named fields and arrays of one checkpoint; ``None`` (with a
    warning) if it is missing or unusable."""
    if not path.exists():
        return None
    try:
        fields, arrays, _digest = read_container(path)
        if fields.get("format_version") != _CHECKPOINT_FORMAT_VERSION:
            raise CodecError(f"format version {fields.get('format_version')!r}")
        stored = {**fields, **arrays}
        return {name: stored[name] for name in required}
    except (CodecError, KeyError) as exc:
        _logger.warning("ignoring unusable checkpoint %s (%s)", path, exc)
        return None


@dataclass(frozen=True, slots=True)
class SolveState:
    """One solve checkpoint: the iterate and how far the solve had got."""

    x: np.ndarray
    iteration: int
    residual: float


class SolveCheckpointer:
    """Periodic atomic snapshots of an iterative solve, keyed by tag.

    Parameters
    ----------
    directory:
        Where checkpoint files live (created on first save).
    every:
        Save interval in iterations (a final checkpoint is always written
        on convergence regardless of the interval).
    resume:
        When True, :meth:`load` returns stored state; when False it
        always returns ``None`` (fresh start, existing files untouched
        until overwritten).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int = 25,
        resume: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.every = max(int(every), 1)
        self.resume = bool(resume)

    def path_for(self, tag: str) -> Path:
        """Checkpoint file path for one solve tag (sanitized)."""
        safe = _TAG_RE.sub("_", tag) or "solve"
        return self.directory / f"{safe}.ckpt"

    def save(self, tag: str, x: np.ndarray, iteration: int, residual: float) -> None:
        """Write one checkpoint atomically (tmp + rename)."""
        write_container(
            self.path_for(tag),
            {
                "format_version": _CHECKPOINT_FORMAT_VERSION,
                "iteration": int(iteration),
                "residual": float(residual),
            },
            {"x": np.asarray(x, dtype=np.float64)},
        )
        emit_event(
            "checkpoint_save", tag=tag, iteration=int(iteration),
            residual=float(residual),
        )

    def maybe_save(
        self, tag: str, x: np.ndarray, iteration: int, residual: float
    ) -> bool:
        """Save if ``iteration`` hits the configured interval."""
        if iteration % self.every != 0:
            return False
        self.save(tag, x, iteration, residual)
        return True

    def load(self, tag: str) -> SolveState | None:
        """The stored state for ``tag`` when resuming; else ``None``."""
        if not self.resume:
            return None
        data = _load(self.path_for(tag), ("x", "iteration", "residual"))
        if data is None:
            return None
        state = SolveState(
            x=np.asarray(data["x"], dtype=np.float64),
            iteration=int(data["iteration"]),
            residual=float(data["residual"]),
        )
        _record_resume("solve")
        emit_event("checkpoint_resume", tag=tag, iteration=state.iteration)
        _logger.info(
            "resuming solve %r from iteration %d (residual %.3e)",
            tag,
            state.iteration,
            state.residual,
        )
        return state

    def clear(self, tag: str) -> None:
        """Delete the checkpoint for one tag, if present."""
        remove(self.path_for(tag))


class PipelineCheckpointer:
    """Content-addressed store of completed pipeline-stage outputs.

    Stage files live under ``directory / <key[:16]> / <stage>`` where
    ``key`` is the :func:`content_key` of the run's inputs — any change
    to the graph, seeds, or parameters changes the key, so stale state
    can never be replayed onto different inputs.
    """

    def __init__(self, directory: str | Path, *, resume: bool = True) -> None:
        self.directory = Path(directory)
        self.resume = bool(resume)

    def _stage_path(self, key: str, stage: str) -> Path:
        safe = _TAG_RE.sub("_", stage) or "stage"
        return self.directory / key[:16] / safe

    def solve_checkpointer(
        self, key: str, *, every: int = 25
    ) -> SolveCheckpointer:
        """A :class:`SolveCheckpointer` scoped under this run's key."""
        return SolveCheckpointer(
            self.directory / key[:16] / "solves", every=every, resume=self.resume
        )

    def save_stage(self, key: str, stage: str, **values: object) -> None:
        """Persist one completed stage's named arrays and scalars atomically."""
        write_container(
            self._stage_path(key, stage),
            {
                "format_version": _CHECKPOINT_FORMAT_VERSION,
                **{k: v for k, v in values.items() if not isinstance(v, np.ndarray)},
            },
            {k: v for k, v in values.items() if isinstance(v, np.ndarray)},
        )

    def load_stage(
        self, key: str, stage: str, names: tuple[str, ...]
    ) -> dict | None:
        """The stored values for one stage when resuming; else ``None``."""
        if not self.resume:
            return None
        data = _load(self._stage_path(key, stage), names)
        if data is not None:
            _record_resume("stage")
            emit_event("stage_resume", stage=stage, key=key[:16])
            _logger.info("resuming pipeline stage %r from checkpoint", stage)
        return data
