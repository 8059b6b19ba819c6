"""Executors honor an explicitly passed falsy ``materialized`` mapping.

``param or fallback`` silently replaces an *explicitly passed* value
whenever that value is falsy.  For mapping-shaped parameters the
distinction is observable with a falsy-but-nonempty mapping — a ``dict``
subclass whose ``__bool__`` is False, the shape a lazily-counting or
view-backed mapping legitimately has.  These tests pin the semantics:
**None means default, anything else is honored.**
"""

from repro.execution.columnar.executor import ColumnarExecutor
from repro.execution.data import Database
from repro.execution.executor import Executor


class FalsyDict(dict):
    """A mapping that is falsy regardless of contents (e.g. a lazy view)."""

    def __bool__(self):
        return False


def test_falsydict_premise():
    d = FalsyDict({1: "x"})
    assert not d and len(d) == 1  # the shape the old `or` idiom mishandled


def test_row_executor_store_honors_falsy_materialized_mapping():
    executor = Executor(Database(tables={}))
    rows = [{"a": 1}]
    store = executor._make_store(FalsyDict({7: rows}))
    assert store == {7: rows}  # the old `materialized or {}` dropped this
    assert executor._make_store(None) == {}


def test_columnar_executor_store_honors_falsy_materialized_mapping():
    executor = ColumnarExecutor(Database(tables={}))
    rows = [{"a": 1}]
    store = executor._make_store(FalsyDict({7: rows}))
    assert dict(store) == {7: rows}
    assert dict(executor._make_store(None)) == {}


def test_sql_executor_store_honors_falsy_materialized_mapping():
    from repro.execution.sql.executor import SQLExecutor

    executor = SQLExecutor(Database(tables={}))
    rows = [{"a": 1}]
    store = executor._make_store(FalsyDict({7: rows}))
    assert dict(store) == {7: rows}
    assert dict(executor._make_store(None)) == {}
