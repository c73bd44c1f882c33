"""Deterministic fault injection for the resilience test/bench suite.

Production code never imports this module; it exists so that tests and
``benchmarks/bench_resilience.py`` can *provoke* every failure mode the
resilience layer claims to survive, reproducibly:

* :class:`FaultyOperator` — wraps any
  :class:`~repro.linalg.operator.TransitionOperator` and, on exactly the
  configured matvec call, either corrupts the output (NaN/Inf written at
  seeded positions — a bit-flip/corrupted-buffer stand-in) or raises
  :class:`~repro.errors.InjectedFaultError` (a crashed kernel stand-in).
  Faults are *transient*: call counting continues across solver attempts,
  so a fallback retry against the same operator sails past the fault —
  exactly the cosmic-ray model the fallback chain is built for.
* :func:`crash_at_iteration` — a per-iteration callback raising
  :class:`SimulatedCrash` at iteration *k*, standing in for a killed
  process in in-process crash/resume tests (`os.kill` without the mess).

On top of the solve-path faults sits the **distributed** fault plan for
the replicated serving fleet (gray failures, not clean deaths):

* :class:`FaultRule` — one validated, serializable fault description
  (kind, probability, latency/jitter/stall magnitudes); built directly
  or from a validated :class:`~repro.config.ChaosParams`.
* :class:`FaultPlan` — a named, seeded collection of rules with an
  activation set.  Rules are added up front and toggled while traffic
  runs (the bench's scripted chaos schedule); every draw comes from one
  seeded rng, so a plan replays identically.  Plans serialize to plain
  dicts, which is how the ``chaos`` replica op ships them across
  process boundaries.
* :class:`SocketFaultInjector` — applies a plan at a replica's socket
  layer: added latency, jittered mid-frame stalls, connection resets
  mid-response, and torn (truncated, never newline-terminated) frames.
* :class:`FaultyStore` — wraps a
  :class:`~repro.serving.snapshot.SnapshotStore` (duck-typed, no
  serving import) and injects storage-side faults: ``disk_full`` on
  publish (ENOSPC), ``torn_publish`` (the published file is truncated
  after the write, as a crash mid-``write`` would leave it), and
  ``slow_adopt`` (reads of ``latest``/``load`` are delayed).

Everything is seeded: the same :class:`FaultyOperator` configuration
corrupts the same vector positions every run, and the same
:class:`FaultPlan` fires the same faults on the same draws.
"""

from __future__ import annotations

import errno
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..errors import ConfigError, InjectedFaultError

__all__ = [
    "SimulatedCrash",
    "FaultyOperator",
    "crash_at_iteration",
    "FAULT_KINDS",
    "FaultRule",
    "FaultPlan",
    "SocketFaultInjector",
    "FaultyStore",
]


class SimulatedCrash(InjectedFaultError):
    """Raised by :func:`crash_at_iteration` to emulate a killed solve."""


class FaultyOperator:
    """A transition operator with scheduled, seeded matvec faults.

    Parameters
    ----------
    base:
        The real operator; all protocol calls delegate to it.
    corrupt_at_call:
        1-based matvec call on which the returned vector is corrupted
        (``None`` disables).
    fail_at_call:
        1-based matvec call which raises
        :class:`~repro.errors.InjectedFaultError` (``None`` disables).
    corrupt_value:
        What to write at the corrupted positions (default NaN).
    n_corrupt:
        How many positions to corrupt (chosen by the seeded rng).
    seed:
        Seed for position choice — identical seeds corrupt identical
        positions.
    """

    def __init__(
        self,
        base,
        *,
        corrupt_at_call: int | None = None,
        fail_at_call: int | None = None,
        corrupt_value: float = float("nan"),
        n_corrupt: int = 1,
        seed: int = 0,
    ) -> None:
        self._base = base
        self._corrupt_at = corrupt_at_call
        self._fail_at = fail_at_call
        self._corrupt_value = float(corrupt_value)
        self._n_corrupt = max(int(n_corrupt), 1)
        self._rng = np.random.default_rng(seed)
        self.calls = 0
        self.faults_fired = 0

    @property
    def n(self) -> int:
        """Operator order (delegated)."""
        return self._base.n

    @property
    def kernel(self) -> str:
        """The base operator's kernel name (delegated)."""
        return self._base.kernel

    @property
    def matrix(self):
        """The base operator's explicit CSR (faults apply to matvecs only)."""
        return self._base.matrix

    @property
    def dangling_mask(self) -> np.ndarray:
        """The base operator's dangling mask (delegated)."""
        return self._base.dangling_mask

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Delegate to the base matvec, injecting the scheduled fault."""
        self.calls += 1
        if self._fail_at is not None and self.calls == self._fail_at:
            self.faults_fired += 1
            raise InjectedFaultError(
                f"injected matvec failure on call {self.calls}"
            )
        y = self._base.rmatvec(x)
        if self._corrupt_at is not None and self.calls == self._corrupt_at:
            self.faults_fired += 1
            y = np.array(y, dtype=np.float64, copy=True)
            where = self._rng.choice(
                y.size, size=min(self._n_corrupt, y.size), replace=False
            )
            y[where] = self._corrupt_value
        return y

    def materialize(self):
        """The base operator's explicit matrix (faults apply to matvecs only)."""
        return self._base.materialize()

    def __repr__(self) -> str:
        return (
            f"FaultyOperator(n={self.n}, calls={self.calls}, "
            f"corrupt_at={self._corrupt_at}, fail_at={self._fail_at})"
        )


def crash_at_iteration(
    k: int, *, action: Callable[[], None] | None = None
) -> Callable[[int, float], None]:
    """A solver ``callback`` that dies at iteration ``k``.

    ``action`` runs first when given (e.g. ``lambda: os._exit(3)`` for a
    real process kill in a subprocess harness); otherwise — and for the
    in-process tests — :class:`SimulatedCrash` is raised.
    """
    k = int(k)

    def _callback(iteration: int, residual: float) -> None:
        if iteration == k:
            if action is not None:
                action()
            raise SimulatedCrash(f"simulated crash at iteration {iteration}")

    return _callback


#: Fault kinds the distributed plan understands.  The first four apply
#: at a replica's socket layer, the last three at the snapshot store.
FAULT_KINDS: tuple[str, ...] = (
    "latency",       # delay the whole response frame
    "stall",         # send half the frame, stall, send the rest
    "reset",         # hard connection reset mid-response
    "torn",          # truncated frame, then a clean close
    "slow_adopt",    # delay snapshot-store reads (latest/load)
    "torn_publish",  # truncate the snapshot file after publishing it
    "disk_full",     # publish raises ENOSPC
)


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One serializable fault description inside a :class:`FaultPlan`.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Per-draw chance the rule fires while active (1.0 = always).
    latency_seconds, jitter_seconds:
        Added delay: fixed part plus a seeded uniform jitter draw.
    stall_seconds:
        Mid-frame stall length (``stall`` kind).
    cut_fraction:
        Fraction of the frame written before a ``reset``/``torn`` cut.
    """

    kind: str
    probability: float = 1.0
    latency_seconds: float = 0.0
    jitter_seconds: float = 0.0
    stall_seconds: float = 0.05
    cut_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        probability = float(self.probability)
        if not 0.0 <= probability <= 1.0:
            raise ConfigError(
                f"probability must lie in [0, 1], got {probability!r}"
            )
        object.__setattr__(self, "probability", probability)
        for name in ("latency_seconds", "jitter_seconds", "stall_seconds"):
            value = float(getattr(self, name))
            if value < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        cut = float(self.cut_fraction)
        if not 0.0 < cut <= 1.0:
            raise ConfigError(f"cut_fraction must lie in (0, 1], got {cut!r}")
        object.__setattr__(self, "cut_fraction", cut)

    @classmethod
    def from_params(cls, kind: str, params) -> "FaultRule":
        """Build a rule of ``kind`` from a validated ``ChaosParams``."""
        if kind in ("reset", "torn"):
            probability = (
                params.reset_probability
                if kind == "reset"
                else params.torn_probability
            )
        else:
            probability = 1.0
        return cls(
            kind=kind,
            probability=probability,
            latency_seconds=(
                params.adoption_delay_seconds
                if kind == "slow_adopt"
                else params.latency_seconds
            ),
            jitter_seconds=params.jitter_seconds,
            stall_seconds=params.stall_seconds or 0.05,
            cut_fraction=params.cut_fraction,
        )

    def to_config(self) -> dict:
        """Plain-dict form (JSON-safe, crosses the replica wire)."""
        return {
            "kind": self.kind,
            "probability": self.probability,
            "latency_seconds": self.latency_seconds,
            "jitter_seconds": self.jitter_seconds,
            "stall_seconds": self.stall_seconds,
            "cut_fraction": self.cut_fraction,
        }

    @classmethod
    def from_config(cls, config: Mapping) -> "FaultRule":
        """Inverse of :meth:`to_config` (unknown keys rejected)."""
        allowed = {
            "kind", "probability", "latency_seconds", "jitter_seconds",
            "stall_seconds", "cut_fraction",
        }
        unknown = set(config) - allowed
        if unknown:
            raise ConfigError(
                f"unknown FaultRule field(s): {sorted(unknown)}"
            )
        return cls(**dict(config))


class FaultPlan:
    """A seeded, named set of fault rules with a runtime activation set.

    Rules are registered (usually all up front) and then toggled with
    :meth:`activate` / :meth:`deactivate` while traffic runs — that is
    the whole chaos schedule mechanism: the bench flips named rules at
    scripted points in the load.  Draw order is the only source of
    randomness and comes from one seeded generator, so a plan replays
    identically for identical call sequences.

    Thread-safe; replica handler threads and the poll loop share one
    plan.
    """

    def __init__(
        self,
        rules: Mapping[str, FaultRule] | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self._lock = threading.Lock()
        self._rules: dict[str, FaultRule] = {}
        self._active: set[str] = set()
        self._rng = np.random.default_rng(int(seed))
        self.seed = int(seed)
        self.fired: dict[str, int] = {}
        for name, rule in (rules or {}).items():
            self.add(name, rule)

    def add(self, name: str, rule: FaultRule) -> "FaultPlan":
        """Register (or replace) one named rule; returns self for chaining."""
        if not isinstance(rule, FaultRule):
            raise ConfigError(
                f"rule {name!r} must be a FaultRule, got {type(rule).__name__}"
            )
        with self._lock:
            self._rules[str(name)] = rule
            self.fired.setdefault(str(name), 0)
        return self

    def activate(self, *names: str) -> "FaultPlan":
        """Turn the named rules on (unknown names are an error)."""
        with self._lock:
            for name in names:
                if name not in self._rules:
                    raise ConfigError(
                        f"unknown fault rule {name!r} "
                        f"(have {sorted(self._rules)})"
                    )
                self._active.add(name)
        return self

    def deactivate(self, *names: str) -> "FaultPlan":
        """Turn the named rules off (missing names are ignored)."""
        with self._lock:
            for name in names:
                self._active.discard(name)
        return self

    def reset(self) -> None:
        """Deactivate everything (rules and counters are kept)."""
        with self._lock:
            self._active.clear()

    def active(self) -> tuple[str, ...]:
        """Names of the currently active rules, sorted."""
        with self._lock:
            return tuple(sorted(self._active))

    def draw(self, kind: str) -> FaultRule | None:
        """The active rule of ``kind`` that fires on this draw, if any.

        Consumes one rng draw per active rule of the kind (whether or
        not it fires), keeping replay deterministic.
        """
        if kind not in FAULT_KINDS:
            raise ConfigError(f"kind must be one of {FAULT_KINDS}, got {kind!r}")
        with self._lock:
            fired: FaultRule | None = None
            for name in sorted(self._active):
                rule = self._rules[name]
                if rule.kind != kind:
                    continue
                roll = float(self._rng.random())
                if fired is None and roll < rule.probability:
                    fired = rule
                    self.fired[name] = self.fired.get(name, 0) + 1
            return fired

    def delay(self, rule: FaultRule) -> float:
        """One latency draw for ``rule``: fixed part + seeded jitter."""
        with self._lock:
            jitter = (
                float(self._rng.random()) * rule.jitter_seconds
                if rule.jitter_seconds > 0.0
                else 0.0
            )
        return rule.latency_seconds + jitter

    # -- wire form --------------------------------------------------------
    def describe(self) -> dict:
        """Health-document form: rules, activation set, fired counts."""
        with self._lock:
            return {
                "rules": {
                    name: rule.to_config()
                    for name, rule in sorted(self._rules.items())
                },
                "active": sorted(self._active),
                "fired": dict(sorted(self.fired.items())),
            }

    def apply_config(self, config: Mapping) -> dict:
        """Apply one ``chaos`` op payload: add/activate/deactivate/reset.

        Accepted keys: ``rules`` (name → rule dict), ``activate`` and
        ``deactivate`` (name lists), ``reset`` (bool, applied first).
        Returns :meth:`describe` after the change.
        """
        allowed = {"rules", "activate", "deactivate", "reset"}
        unknown = set(config) - allowed
        if unknown:
            raise ConfigError(f"unknown chaos key(s): {sorted(unknown)}")
        if config.get("reset"):
            self.reset()
        for name, rule in dict(config.get("rules") or {}).items():
            self.add(name, FaultRule.from_config(rule))
        self.activate(*[str(n) for n in config.get("activate") or ()])
        self.deactivate(*[str(n) for n in config.get("deactivate") or ()])
        return self.describe()


class SocketFaultInjector:
    """Applies a :class:`FaultPlan` to outgoing response frames.

    The replica handler routes every response through :meth:`send`,
    which either writes the frame (possibly delayed or stalled) and
    returns ``True``, or cuts the connection mid-frame (reset / torn
    frame) and returns ``False`` so the handler drops the client.
    At most one fault applies per frame, precedence
    ``reset > torn > stall > latency``.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.plan = plan
        self._sleep = sleep

    def send(self, wfile, frame: bytes, connection=None) -> bool:
        """Write ``frame``, applying at most one active fault."""
        rule = self.plan.draw("reset")
        if rule is not None:
            cut = max(int(len(frame) * rule.cut_fraction), 1)
            try:
                wfile.write(frame[:cut])
                wfile.flush()
            except OSError:
                pass
            if connection is not None:
                # SO_LINGER(on, 0) turns close() into an RST — the
                # client sees a genuine connection reset, not a FIN.
                import socket as _socket
                import struct as _struct

                try:
                    connection.setsockopt(
                        _socket.SOL_SOCKET,
                        _socket.SO_LINGER,
                        _struct.pack("ii", 1, 0),
                    )
                except OSError:
                    pass
            return False
        rule = self.plan.draw("torn")
        if rule is not None:
            cut = max(int(len(frame) * rule.cut_fraction), 1)
            # Never include the trailing newline: the client must see a
            # frame that ends mid-payload, exactly like a torn write.
            cut = min(cut, len(frame) - 1)
            try:
                wfile.write(frame[:cut])
                wfile.flush()
            except OSError:
                pass
            return False
        rule = self.plan.draw("stall")
        if rule is not None:
            half = max(len(frame) // 2, 1)
            wfile.write(frame[:half])
            wfile.flush()
            self._sleep(rule.stall_seconds)
            wfile.write(frame[half:])
            wfile.flush()
            return True
        rule = self.plan.draw("latency")
        if rule is not None:
            self._sleep(self.plan.delay(rule))
        wfile.write(frame)
        wfile.flush()
        return True


class FaultyStore:
    """A snapshot store wrapper with plan-scheduled storage faults.

    Duck-typed over any :class:`~repro.serving.snapshot.SnapshotStore`-
    shaped object (everything not intercepted delegates), so it slots
    under a publisher :class:`~repro.serving.RankingService` or a
    replica :class:`~repro.serving.fleet.SnapshotFollower` unchanged:

    * ``disk_full`` — :meth:`publish` raises ``OSError(ENOSPC)`` before
      touching the directory (the full-disk publish failure path);
    * ``torn_publish`` — the publish succeeds, then the written file is
      truncated in place, leaving exactly what a crash mid-write leaves
      (the store's digest verification must reject it on load);
    * ``slow_adopt`` — ``latest``/``load`` sleep a plan-drawn delay
      first (a stalling disk / slow NFS mount stand-in).
    """

    def __init__(
        self,
        base,
        plan: FaultPlan | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._base = base
        self.plan = plan if plan is not None else FaultPlan()
        self._sleep = sleep

    def publish(self, **kwargs):
        """Publish through the base store, injecting storage faults."""
        if self.plan.draw("disk_full") is not None:
            raise OSError(
                errno.ENOSPC, "injected disk-full: no space left on device"
            )
        tear = self.plan.draw("torn_publish")
        snapshot = self._base.publish(**kwargs)
        if tear is not None:
            path = self._base.path_for(snapshot.version)
            data = path.read_bytes()
            cut = max(int(len(data) * tear.cut_fraction), 1)
            path.write_bytes(data[:cut])
        return snapshot

    def latest(self, **kwargs):
        """Delegate ``latest``, after any active ``slow_adopt`` delay."""
        rule = self.plan.draw("slow_adopt")
        if rule is not None:
            self._sleep(self.plan.delay(rule))
        return self._base.latest(**kwargs)

    def load(self, *args, **kwargs):
        """Delegate ``load``, after any active ``slow_adopt`` delay."""
        rule = self.plan.draw("slow_adopt")
        if rule is not None:
            self._sleep(self.plan.delay(rule))
        return self._base.load(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._base, name)

    def __repr__(self) -> str:
        return f"FaultyStore({self._base!r}, active={self.plan.active()})"
