"""The solver registry: one string-keyed dispatch point for all rankers.

Every ranking entry point used to carry its own copy of the same
``if solver == "power": ... elif solver == "jacobi": ...`` chain.  The
registry replaces those chains with a single mapping from solver name to
solve function, validated once in :class:`~repro.config.RankingParams`
and extensible by downstream code::

    from repro.linalg import register_solver

    @register_solver("my-solver")
    def my_solver(operand, params, *, teleport=None, x0=None, label="",
                  dangling="linear", callback=None):
        ...

Solver contract
---------------
A solver is a callable ``fn(operand, params, *, teleport=None, x0=None,
label="", dangling="linear", callback=None)`` returning
``(scores, ConvergenceInfo)``.  ``operand`` is a CSR matrix or a
:class:`~repro.linalg.operator.TransitionOperator`; solvers that need an
explicit matrix call :func:`~repro.linalg.operator.as_matrix` on it.
Solvers without a dangling-strategy choice (Jacobi, Gauss–Seidel) accept
and ignore ``dangling``.

The built-in solvers live in :mod:`repro.ranking`, which sits *above*
this layer, so they are resolved lazily on first lookup rather than
imported here.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigError

__all__ = [
    "BUILTIN_SOLVERS",
    "SolverRegistry",
    "solver_registry",
    "register_solver",
    "get_solver",
    "available_solvers",
    "solve",
]

#: Solvers shipped with the library, resolved from :mod:`repro.ranking`.
BUILTIN_SOLVERS = ("power", "jacobi", "gauss_seidel")

Solver = Callable[..., tuple]


class SolverRegistry:
    """String → solver mapping with lazy built-in resolution."""

    __slots__ = ("_solvers",)

    def __init__(self) -> None:
        self._solvers: dict[str, Solver] = {}

    def register(
        self,
        name: str,
        fn: Solver | None = None,
        *,
        overwrite: bool = False,
    ):
        """Register ``fn`` under ``name``; usable as a decorator.

        Raises :class:`~repro.errors.ConfigError` on duplicate names
        unless ``overwrite`` is set.
        """

        def _register(fn: Solver) -> Solver:
            if not overwrite and name in self._solvers:
                raise ConfigError(
                    f"solver {name!r} is already registered "
                    "(pass overwrite=True to replace it)"
                )
            self._solvers[name] = fn
            return fn

        if fn is None:
            return _register
        return _register(fn)

    def _load_builtins(self) -> None:
        # Deferred: repro.ranking imports this module's layer, so the
        # built-ins register themselves when the ranking package loads.
        from .. import ranking  # noqa: F401

    def get(self, name: str) -> Solver:
        """The solver registered under ``name``.

        Raises
        ------
        ConfigError
            If no solver by that name exists.
        """
        if name not in self._solvers and name in BUILTIN_SOLVERS:
            self._load_builtins()
        try:
            return self._solvers[name]
        except KeyError:
            raise ConfigError(
                f"unknown solver {name!r}; available: "
                f"{', '.join(self.names())}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """All known solver names (registered plus built-ins), sorted."""
        return tuple(sorted(set(self._solvers) | set(BUILTIN_SOLVERS)))

    def validate(self, name: str) -> str:
        """Check ``name`` resolves to a solver; return it unchanged."""
        if name not in self._solvers and name not in BUILTIN_SOLVERS:
            raise ConfigError(
                f"unknown solver {name!r}; available: "
                f"{', '.join(self.names())}"
            )
        return name

    def solve(
        self,
        operand,
        params,
        *,
        solver: str | None = None,
        label: str = "",
        **kwargs,
    ) -> tuple:
        """Dispatch one ranking solve to the named (or configured) solver.

        ``solver=None`` falls back to ``params.solver`` (and ``"power"``
        for params objects predating the field).  Remaining keyword
        arguments are forwarded to the solver unchanged.
        """
        name = solver or getattr(params, "solver", "power")
        fn = self.get(name)
        return fn(operand, params, label=label, **kwargs)

    def __contains__(self, name: object) -> bool:
        return name in self._solvers or name in BUILTIN_SOLVERS

    def __repr__(self) -> str:
        return f"SolverRegistry({', '.join(self.names())})"


#: The process-wide registry the ranking entry points dispatch through.
solver_registry = SolverRegistry()

register_solver = solver_registry.register
get_solver = solver_registry.get
available_solvers = solver_registry.names
solve = solver_registry.solve
