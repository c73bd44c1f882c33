"""Versioned, integrity-checked snapshot store for published rankings.

A snapshot is one published ranking: the σ vector, the κ it was computed
under, convergence provenance, and the :func:`~repro.resilience.checkpoint.content_key`
of the inputs that produced it.  Snapshots are monotonically numbered
:mod:`repro.container` files, published atomically and verified against
their trailing digest on load — a torn, truncated, or tampered snapshot
is *skipped* (with a warning and a ``repro_snapshot_rejects_total``
count), never served.  :meth:`SnapshotStore.latest` therefore always
lands on the newest snapshot that is actually healthy, which is what
makes a :class:`~repro.serving.service.RankingService` restart safe:
whatever a crash left behind, the store serves the last complete publish.
"""

from __future__ import annotations

import re
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np

from ..container import read_container, remove, write_container
from ..errors import CodecError, ServingError
from ..linalg.iterate import ConvergenceInfo
from ..logging_utils import get_logger
from ..observability.metrics import get_registry
from ..ranking.base import RankingResult

__all__ = ["RankingSnapshot", "SnapshotStore", "SNAPSHOT_KINDS"]

_logger = get_logger(__name__)

_SNAPSHOT_FORMAT_VERSION = 3
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})$")

#: The two snapshot kinds a service publishes: the throttled SR ranking
#: and the unthrottled baseline it degrades to.
SNAPSHOT_KINDS: tuple[str, ...] = ("sr", "baseline")


def _record_reject(reason: str) -> None:
    get_registry().counter(
        "repro_snapshot_rejects_total",
        "Snapshots refused at load time, by reason",
        labelnames=("reason",),
    ).labels(reason=reason).inc()


class RankingSnapshot:
    """One published ranking: σ, κ, provenance, and an input fingerprint."""

    __slots__ = (
        "version",
        "kind",
        "sigma",
        "kappa",
        "key",
        "published_at",
        "solver",
        "convergence",
        "_result",
    )

    def __init__(
        self,
        *,
        version: int,
        kind: str,
        sigma: np.ndarray,
        kappa: np.ndarray,
        key: str,
        published_at: float,
        solver: str,
        convergence: ConvergenceInfo,
    ) -> None:
        if kind not in SNAPSHOT_KINDS:
            raise ServingError(
                f"snapshot kind must be one of {SNAPSHOT_KINDS}, got {kind!r}"
            )
        sigma = np.asarray(sigma, dtype=np.float64).ravel()
        kappa = np.asarray(kappa, dtype=np.float64).ravel()
        sigma.setflags(write=False)
        kappa.setflags(write=False)
        self.version = int(version)
        self.kind = str(kind)
        self.sigma = sigma
        self.kappa = kappa
        self.key = str(key)
        self.published_at = float(published_at)
        self.solver = str(solver)
        self.convergence = convergence
        self._result: RankingResult | None = None

    @property
    def n(self) -> int:
        """Number of ranked sources."""
        return int(self.sigma.size)

    def result(self) -> RankingResult:
        """The snapshot as a :class:`~repro.ranking.base.RankingResult`.

        Built once and cached — the service answers top-k/percentile
        queries through the result's rank-order helpers.
        """
        if self._result is None:
            self._result = RankingResult(
                self.sigma,
                self.convergence,
                label=f"snapshot-{self.version}:{self.kind}",
            )
        return self._result

    def age(self, now: float) -> float:
        """Seconds between this snapshot's publish and ``now``."""
        return max(float(now) - self.published_at, 0.0)

    def __repr__(self) -> str:
        return (
            f"RankingSnapshot(version={self.version}, kind={self.kind!r}, "
            f"n={self.n}, published_at={self.published_at:.3f})"
        )


class SnapshotStore:
    """Atomic, monotonically versioned snapshot files under one directory.

    Parameters
    ----------
    directory:
        Where ``snapshot-<version>`` files live (created on first
        publish).
    keep:
        Retention per kind: :meth:`publish` prunes all but the newest
        ``keep`` snapshots of each kind (the newest healthy baseline is
        always retained — it is the degraded-mode fallback).
    clock:
        Wall-clock source for ``published_at`` (injectable for tests).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        keep: int = 8,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.directory = Path(directory)
        self.keep = max(int(keep), 1)
        self._clock = clock
        self._lock = threading.Lock()
        # version -> kind ("sr"/"baseline") or None for known-unreadable
        # files.  Filled by publish and by prune's first look at a file,
        # so retention never re-loads (and re-sha256s) the same snapshot
        # twice.  Only consulted for pruning decisions — serving paths
        # (:meth:`load`/:meth:`latest`) always verify the bytes on disk.
        self._kinds: dict[int, str | None] = {}

    # ------------------------------------------------------------------
    # Paths and enumeration
    # ------------------------------------------------------------------
    def path_for(self, version: int) -> Path:
        """Snapshot file path for one version number."""
        return self.directory / f"snapshot-{int(version):08d}"

    def versions(self) -> tuple[int, ...]:
        """All version numbers present on disk, ascending (healthy or not)."""
        if not self.directory.is_dir():
            return ()
        found = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return tuple(sorted(found))

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(
        self,
        *,
        kind: str,
        sigma: np.ndarray,
        kappa: np.ndarray,
        key: str = "",
        solver: str = "",
        convergence: ConvergenceInfo | None = None,
    ) -> RankingSnapshot:
        """Atomically write the next-numbered snapshot and return it.

        The version counter is the max on-disk version plus one, taken
        under the store lock, so concurrent publishers can never collide
        or reuse a number.  The file ends in a digest of its bytes; any
        later mutation of them is detected at load time.
        """
        if convergence is None:
            convergence = ConvergenceInfo(
                converged=True, iterations=0, residual=0.0, tolerance=0.0
            )
        with self._lock:
            existing = self.versions()
            version = (existing[-1] if existing else 0) + 1
            snapshot = RankingSnapshot(
                version=version,
                kind=kind,
                sigma=sigma,
                kappa=kappa,
                key=key,
                published_at=self._clock(),
                solver=solver,
                convergence=convergence,
            )
            write_container(
                self.path_for(version),
                {
                    "format_version": _SNAPSHOT_FORMAT_VERSION,
                    "version": version,
                    "kind": snapshot.kind,
                    "key": snapshot.key,
                    "solver": snapshot.solver,
                    "converged": bool(convergence.converged),
                    "iterations": int(convergence.iterations),
                    "residual": float(convergence.residual),
                    "tolerance": float(convergence.tolerance),
                    "published_at": snapshot.published_at,
                },
                {"sigma": snapshot.sigma, "kappa": snapshot.kappa},
            )
            self._kinds[version] = snapshot.kind
            self._prune_locked()
        get_registry().counter(
            "repro_snapshot_publishes_total",
            "Snapshots published, by kind",
            labelnames=("kind",),
        ).labels(kind=snapshot.kind).inc()
        _logger.info(
            "published snapshot %d (%s, n=%d)", version, kind, snapshot.n
        )
        return snapshot

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def load(self, version: int) -> RankingSnapshot | None:
        """Load and verify one snapshot; ``None`` if missing or unhealthy.

        Verification order: the container's length and digest must check
        out (a torn tmp+rename can never produce a half-file, but an
        external truncation or a flipped byte can), then the format
        version must match.  Any failure is a warning plus a
        ``repro_snapshot_rejects_total`` count — never an exception, and
        never a served-but-wrong σ.
        """
        path = self.path_for(version)
        if not path.exists():
            return None
        try:
            fields, arrays, _digest = read_container(path)
        except CodecError as exc:
            _record_reject(exc.reason)
            _logger.warning("rejecting snapshot %s (%s)", path, exc)
            return None
        if fields.get("format_version") != _SNAPSHOT_FORMAT_VERSION:
            _record_reject("format_version")
            _logger.warning(
                "rejecting snapshot %s: format version %r != %d",
                path,
                fields.get("format_version"),
                _SNAPSHOT_FORMAT_VERSION,
            )
            return None
        try:
            return RankingSnapshot(
                version=int(fields["version"]),
                kind=str(fields["kind"]),
                sigma=arrays["sigma"],
                kappa=arrays["kappa"],
                key=str(fields["key"]),
                published_at=float(fields["published_at"]),
                solver=str(fields["solver"]),
                convergence=ConvergenceInfo(
                    converged=bool(fields["converged"]),
                    iterations=int(fields["iterations"]),
                    residual=float(fields["residual"]),
                    tolerance=float(fields["tolerance"]),
                ),
            )
        except (KeyError, TypeError, ValueError, ServingError) as exc:
            _record_reject("unreadable")
            _logger.warning("rejecting unreadable snapshot %s (%s)", path, exc)
            return None

    def latest(self, kind: str | None = None) -> RankingSnapshot | None:
        """The newest *healthy* snapshot (of ``kind``, when given).

        Walks versions newest-first, skipping anything :meth:`load`
        rejects — the recovery path after a torn write or a crash
        mid-publish.
        """
        for version in reversed(self.versions()):
            snapshot = self.load(version)
            if snapshot is None:
                continue
            if kind is None or snapshot.kind == kind:
                return snapshot
        return None

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def _prune_locked(self) -> None:
        """Drop all but the newest ``keep`` snapshots of each kind.

        The newest loadable baseline is always retained regardless of
        age: it is the serve-from-baseline fallback, and deleting it
        would silently remove a degraded mode.

        Kinds come from the ``_kinds`` cache where available (publish
        fills it; an unknown version is loaded and verified exactly
        once), so the prune that runs on every publish does not re-read
        and re-digest the whole retained set each time.
        """
        per_kind: dict[str, list[int]] = {}
        unreadable: list[int] = []
        for version in reversed(self.versions()):
            if version not in self._kinds:
                snapshot = self.load(version)
                self._kinds[version] = None if snapshot is None else snapshot.kind
            kind = self._kinds[version]
            if kind is None:
                unreadable.append(version)
                continue
            per_kind.setdefault(kind, []).append(version)
        doomed: list[int] = []
        for versions in per_kind.values():
            doomed.extend(versions[self.keep:])
        # Unreadable files older than the newest healthy snapshot carry
        # no information; clear them so the directory cannot grow
        # unboundedly under repeated torn writes.
        newest_healthy = max(
            (vs[0] for vs in per_kind.values()), default=None
        )
        if newest_healthy is not None:
            doomed.extend(v for v in unreadable if v < newest_healthy)
        for version in doomed:
            remove(self.path_for(version))
            self._kinds.pop(version, None)

    def prune(self) -> None:
        """Apply the retention policy now (publish does this implicitly)."""
        with self._lock:
            self._prune_locked()
