"""The executor-backend registry: name → Executor class.

The serving layer selects its execution backend by name
(``OptimizerSession(catalog, executor="row")``) so sessions, the benchmark
and the tests can plumb one string through instead of importing executor
classes.  Four backends ship:

* ``"columnar"`` — the vectorized backend
  (:class:`~repro.execution.columnar.executor.ColumnarExecutor`), the
  default every session serves through;
* ``"row"`` — the tuple-at-a-time interpreter
  (:class:`~repro.execution.executor.Executor`); slow but transparently
  simple, kept as the differential oracle;
* ``"sqlite"`` — the SQL oracle
  (:class:`~repro.execution.sql.executor.SQLiteExecutor`): plans rendered
  to SQL and executed on stdlib ``sqlite3``, an engine-independent ground
  truth for the Python backends;
* ``"duckdb"`` — the same oracle on DuckDB
  (:class:`~repro.execution.sql.executor.DuckDBExecutor`); registered
  always, but constructing it requires the optional ``duckdb`` package.
"""

from __future__ import annotations

from typing import Callable, Dict, Type

from .executor import Executor

__all__ = ["DEFAULT_BACKEND", "available_backends", "resolve_backend"]

DEFAULT_BACKEND = "columnar"


def _registry() -> Dict[str, Type[Executor]]:
    # Imported lazily: the columnar and SQL modules import the row executor.
    # Importing the SQL module never imports duckdb itself — that happens
    # when a DuckDBExecutor is built — so the optional dependency stays
    # optional at registry level.
    from .columnar.executor import ColumnarExecutor
    from .sql.executor import DuckDBExecutor, SQLiteExecutor

    return {
        "row": Executor,
        "columnar": ColumnarExecutor,
        "sqlite": SQLiteExecutor,
        "duckdb": DuckDBExecutor,
    }


def available_backends() -> tuple:
    """The registered backend names, default first."""
    names = _registry()
    return tuple(sorted(names, key=lambda name: (name != DEFAULT_BACKEND, name)))


def resolve_backend(name: str) -> Type[Executor]:
    """The executor class registered under ``name``.

    Raises ``ValueError`` (listing the valid names) for unknown backends so
    a typo in a session argument fails loudly at construction, not at first
    execution.
    """
    registry = _registry()
    try:
        return registry[name]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {name!r}; "
            f"available: {', '.join(sorted(registry))}"
        ) from None
