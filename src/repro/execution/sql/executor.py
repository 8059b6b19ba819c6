"""The SQL oracle backend: plans rendered to SQL, run on a real engine.

:class:`SQLExecutor` subclasses the row interpreter the same way the
columnar backend does — ``execute``, ``execute_result``, the
dependency-ordered materialization loop, ``fill_listener``/``observer``
hooks and the session-level cache accounting are all shared code; only
:meth:`~repro.execution.executor.Executor._run` changes, so a
``MATERIALIZE`` plan's rows flow through exactly the same store/cache
plumbing (and therefore the same fingerprint keys and hit/miss counters)
as the Python backends.

Per top-level plan, ``_run``:

1. makes sure the engine holds the session's :class:`~repro.execution.data
   .Database` — tables are (re)loaded only when the content-derived
   ``Database.fingerprint()`` token changed, so repeated batches against
   the same data never re-load;
2. creates one temp table per materialized group the plan reads, filled
   from the store (either freshly computed upstream in this call or
   fetched from the materialization cache);
3. renders the plan to a single SELECT (:mod:`.render`), executes it, and
   rebuilds executor-shaped row dicts from the result tuples.

All calls are serialized behind one lock: the scheduler may drive a
session's executor from several worker threads, and an embedded engine
connection is not a concurrent structure.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Mapping, Optional, Tuple

from ..columnar.batch import ColumnBatch
from ..data import Database, Row
from ..executor import ExecutionError, Executor
from .render import render_plan

__all__ = ["DuckDBExecutor", "SQLExecutor", "SQLiteExecutor"]


def _union_columns(rows: List[Row]) -> Tuple[str, ...]:
    """All row keys in first-seen order (the relation's schema)."""
    names: Dict[str, None] = {}
    for row in rows:
        for key in row:
            if key not in names:
                names[key] = None
    return tuple(names)


class _SQLStore(dict):
    """The materialized-results store plus the groups' temp-table names.

    ``execute_result`` keeps materializations as ``ColumnBatch`` values (the
    form the cache layer holds); this remembers which groups were also
    loaded into the engine as temp tables, so several readers of one group
    load it once.
    """

    __slots__ = ("tables",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tables: Dict[int, Tuple[str, Tuple[str, ...]]] = {}


class SQLExecutor(Executor):
    """Executes physical plans by rendering them to SQL on a real engine."""

    #: Overridden by subclasses; selects the driver in :mod:`.driver`.
    driver_name = "sqlite"

    def __init__(self, database: Database, *, driver=None):
        super().__init__(database)
        if driver is None:
            from .driver import create_driver

            driver = create_driver(self.driver_name)
        self._driver = driver
        self._lock = threading.RLock()
        self._loaded_token: Optional[str] = None
        self._base_columns: Dict[str, Tuple[str, ...]] = {}
        self._call = 0
        self._temp_tables: List[str] = []

    # ------------------------------------------------------------------ API

    def execute(self, plan, materialized=None):
        with self._lock:
            self._begin_call()
            try:
                return super().execute(plan, materialized)
            finally:
                self._end_call()

    def execute_result(
        self, result, materialized=None, fill_listener=None, queries=None, observer=None
    ):
        with self._lock:
            self._begin_call()
            try:
                return super().execute_result(
                    result,
                    materialized,
                    fill_listener=fill_listener,
                    queries=queries,
                    observer=observer,
                )
            finally:
                self._end_call()

    # ------------------------------------------------------------- plumbing

    def _begin_call(self) -> None:
        self._call += 1
        self._temp_tables = []
        self._ensure_loaded()

    def _end_call(self) -> None:
        for table in self._temp_tables:
            self._driver.drop_table(table)
        self._temp_tables = []

    def _ensure_loaded(self) -> None:
        """(Re)load the database iff its content fingerprint changed."""
        token = self.database.fingerprint()
        if token == self._loaded_token:
            return
        with self.tracer.span(
            "sql.load_tables",
            engine=self.driver_name,
            tables=len(self.database.tables),
        ):
            self._driver.reset()
            self._base_columns = {}
            for table, rows in self.database.tables.items():
                columns = _union_columns(rows)
                # A key a row lacks loads as NULL: the one place the relational
                # engine cannot mirror the dict world's missing-vs-None split.
                data = [tuple(row.get(column) for column in columns) for row in rows]
                self._driver.create_table(table, columns, data)
                self._base_columns[table] = columns
        self._loaded_token = token

    def _make_store(self, materialized) -> Dict:
        return _SQLStore(materialized if materialized is not None else {})

    def _temp_table_for(self, gid: int, store: Mapping[int, ColumnBatch]) -> Tuple[str, Tuple[str, ...]]:
        if isinstance(store, _SQLStore) and gid in store.tables:
            return store.tables[gid]
        rows = store[gid].to_rows()
        columns = _union_columns(rows)
        table = f"__mat_{self._call}_g{gid}"
        self._driver.create_table(
            table, columns, [tuple(row.get(column) for column in columns) for row in rows]
        )
        self._temp_tables.append(table)
        entry = (table, columns)
        if isinstance(store, _SQLStore):
            store.tables[gid] = entry
        return entry

    # ------------------------------------------------------------ execution

    def _run(self, plan, store) -> List[Row]:
        for gid in plan.uses_materialized():
            if gid not in store:
                raise ExecutionError(
                    f"materialized result for G{gid} is not available"
                )
            self._temp_table_for(gid, store)
        rendered = render_plan(plan, _StoreSchemas(self, store))
        rows = self._driver.query(rendered.sql)
        names = rendered.names
        return [dict(zip(names, values)) for values in rows]


class _StoreSchemas:
    """Schema provider for the renderer, backed by one executor call."""

    __slots__ = ("_executor", "_store")

    def __init__(self, executor: SQLExecutor, store) -> None:
        self._executor = executor
        self._store = store

    def base_columns(self, table: str) -> Tuple[str, ...]:
        try:
            return self._executor._base_columns[table]
        except KeyError:
            # Mirror Database.table's unknown-table error.
            self._executor.database.table(table)
            raise

    def materialized(self, gid: int) -> Tuple[str, Tuple[str, ...]]:
        return self._executor._temp_table_for(gid, self._store)


class SQLiteExecutor(SQLExecutor):
    """The always-available stdlib oracle (``executor="sqlite"``)."""

    driver_name = "sqlite"


class DuckDBExecutor(SQLExecutor):
    """The optional DuckDB oracle (``executor="duckdb"``).

    Constructing it without the ``duckdb`` package installed raises
    ``ImportError`` with an installation hint.
    """

    driver_name = "duckdb"
