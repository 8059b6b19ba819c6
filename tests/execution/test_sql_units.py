"""Unit tests for the SQL oracle's driver, renderer and backend plumbing.

The differential suites prove end-to-end agreement; this file pins the
pieces in isolation: registry wiring, fingerprint-keyed loading (tables
load once per database version, temp tables are per-call), two-valued
predicate rendering under NOT, literal/identifier escaping, and the error
surface (unknown tables, unsupported value types, the optional-duckdb
ImportError hint).
"""

import pytest

from repro.algebra.expressions import Not, col, eq, lt
from repro.execution import (
    ColumnBatch,
    ColumnarExecutor,
    Executor,
    SQLiteExecutor,
    available_backends,
    resolve_backend,
)
from repro.execution.data import Database
from repro.execution.executor import ExecutionError
from repro.execution.sql.driver import create_driver, quote_identifier
from repro.optimizer.plan import PhysicalOp, PhysicalPlan
from repro.service import OptimizerSession


def plan(op, **kwargs):
    return PhysicalPlan(
        op=op,
        group=kwargs.pop("group", 0),
        cost=0.0,
        local_cost=0.0,
        rows=0.0,
        width=0.0,
        **kwargs,
    )


def scan(table, alias=None):
    return plan(PhysicalOp.TABLE_SCAN, table=table, alias=alias)


class TestRegistry:
    def test_all_four_backends_registered_default_first(self):
        names = available_backends()
        assert names[0] == "columnar"
        assert set(names) == {"row", "columnar", "sqlite", "duckdb"}

    def test_resolve_and_create(self):
        assert resolve_backend("sqlite") is SQLiteExecutor
        executor = resolve_backend("sqlite")(Database({"t": [{"a": 1}]}))
        assert isinstance(executor, SQLiteExecutor)

    def test_unknown_backend_lists_sql_names(self):
        with pytest.raises(ValueError, match="sqlite"):
            resolve_backend("postgres")

    def test_duckdb_backend_registered_but_gated_on_import(self):
        cls = resolve_backend("duckdb")
        try:
            import duckdb  # noqa: F401
        except ImportError:
            with pytest.raises(ImportError, match="duckdb"):
                cls(Database({}))
        else:  # pragma: no cover - only with the optional dependency
            assert cls(Database({})).driver_name == "duckdb"

    def test_unknown_driver_name(self):
        with pytest.raises(ValueError, match="unknown SQL driver"):
            create_driver("oracle")


class TestLoading:
    def test_tables_load_once_per_fingerprint(self):
        db = Database({"t": [{"a": i} for i in range(3)]})
        executor = SQLiteExecutor(db)
        node = scan("t")
        calls = []
        original = executor._driver.create_table

        def counting(table, columns, rows):
            calls.append(table)
            return original(table, columns, rows)

        executor._driver.create_table = counting
        assert len(executor.execute(node)) == 3
        assert calls == ["t"], "first use loads the table"
        assert len(executor.execute(node)) == 3
        assert calls == ["t"], "an unchanged fingerprint must not re-load"

        db.replace_table("t", [{"a": 9}])  # bumps the version ⇒ new fingerprint
        assert executor.execute(node) == [{"t.a": 9}]
        assert calls == ["t", "t"], "a changed fingerprint must reload"

    def test_unknown_table_raises_like_row_backend(self):
        node = scan("nope")
        with pytest.raises(KeyError, match="unknown table"):
            Executor(Database({})).execute(node)
        with pytest.raises(KeyError, match="unknown table"):
            SQLiteExecutor(Database({})).execute(node)

    def test_heterogeneous_tables_load_as_union_schema(self):
        db = Database({"t": [{"a": 1, "b": 2}, {"a": 3}]})
        rows = SQLiteExecutor(db).execute(scan("t"))
        # The engine cannot distinguish a missing key from NULL; the row
        # backend keeps them distinct.  Multiset equality modulo that gap:
        assert rows == [{"t.a": 1, "t.b": 2}, {"t.a": 3, "t.b": None}]

    def test_unsupported_value_type_is_execution_error(self):
        db = Database({"t": [{"a": object()}]})
        with pytest.raises(ExecutionError, match="unsupported value type"):
            SQLiteExecutor(db).execute(scan("t"))

    def test_bytes_round_trip(self):
        payload = "ßignature".encode("utf-8")
        db = Database({"t": [{"a": payload}, {"a": None}]})
        assert SQLiteExecutor(db).execute(scan("t")) == [
            {"t.a": payload},
            {"t.a": None},
        ]

    def test_temp_tables_are_dropped_after_each_call(self):
        db = Database({"t": [{"a": 1}]})
        executor = SQLiteExecutor(db)
        read = plan(PhysicalOp.READ_MATERIALIZED, group=7)
        stored = ColumnBatch.from_rows([{"t.a": 5}])
        assert executor.execute(read, materialized={7: stored}) == [{"t.a": 5}]
        leftovers = executor._driver.query(
            "SELECT name FROM sqlite_master WHERE name LIKE '__mat_%'"
        )
        assert leftovers == []

    def test_read_materialized_missing_group(self):
        executor = SQLiteExecutor(Database({}))
        with pytest.raises(ExecutionError, match="G42 is not available"):
            executor.execute(plan(PhysicalOp.READ_MATERIALIZED, group=42))


class TestPredicateRendering:
    """Two-valued semantics: NOT over a NULL comparison keeps the row."""

    @pytest.mark.parametrize(
        "backend", [Executor, ColumnarExecutor, SQLiteExecutor]
    )
    def test_not_over_null_comparison_is_true(self, backend):
        db = Database({"t": [{"a": 1}, {"a": None}, {"a": 9}]})
        node = plan(
            PhysicalOp.FILTER,
            children=(scan("t"),),
            predicate=Not(lt(col("t.a"), 5)),
        )
        # Python: lt(None, 5) → False → NOT → True: the NULL row survives.
        # SQL three-valued logic would drop it; the NULL guard keeps parity.
        assert backend(db).execute(node) == [{"t.a": None}, {"t.a": 9}]

    @pytest.mark.parametrize(
        "backend", [Executor, ColumnarExecutor, SQLiteExecutor]
    )
    def test_int_never_equals_its_string_rendering(self, backend):
        db = Database({"t": [{"a": 1}, {"a": "1"}]})
        node = plan(
            PhysicalOp.FILTER, children=(scan("t"),), predicate=eq(col("t.a"), 1)
        )
        assert backend(db).execute(node) == [{"t.a": 1}]

    def test_string_literals_with_quotes_round_trip(self):
        tricky = "O'Neil -- \"x\"; DROP TABLE t"
        db = Database({"t": [{"a": tricky}, {"a": "other"}]})
        node = plan(
            PhysicalOp.FILTER, children=(scan("t"),), predicate=eq(col("t.a"), tricky)
        )
        assert SQLiteExecutor(db).execute(node) == [{"t.a": tricky}]

    def test_quote_identifier_doubles_quotes(self):
        assert quote_identifier('we"ird.name') == '"we""ird.name"'

    def test_non_finite_literal_rejected(self):
        db = Database({"t": [{"a": 1.0}]})
        node = plan(
            PhysicalOp.FILTER,
            children=(scan("t"),),
            predicate=eq(col("t.a"), float("nan")),
        )
        with pytest.raises(ExecutionError, match="non-finite"):
            SQLiteExecutor(db).execute(node)


class TestConcurrentSessions:
    def test_scheduler_worker_threads_share_one_engine(self):
        """The lock serializes multi-threaded use of one sqlite connection."""
        import threading

        db = Database({"t": [{"a": i} for i in range(50)]})
        executor = SQLiteExecutor(db)
        node = plan(
            PhysicalOp.FILTER, children=(scan("t"),), predicate=lt(col("t.a"), 25)
        )
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    assert len(executor.execute(node)) == 25
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_session_swaps_database_by_fingerprint(self):
        from repro.workloads.synthetic import (
            random_star_batch,
            star_schema_catalog,
            star_schema_database,
        )

        catalog = star_schema_catalog(n_dimensions=4)
        session = OptimizerSession(catalog, executor="sqlite")
        batch = random_star_batch(2, seed=12, n_dimensions=4)
        result = session.optimize(batch, strategy="volcano")
        outputs = {}
        for seed in (9, 10):
            session.attach_database(star_schema_database(seed=seed, n_dimensions=4))
            outputs[seed] = session.execute_plans(result).rows
        assert outputs[9] != outputs[10], "swapped data must change answers"
        reference = Executor(
            star_schema_database(seed=10, n_dimensions=4)
        ).execute_result(result.plan)
        assert outputs[10] == reference
