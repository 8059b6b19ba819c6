"""Unit tests for the columnar backend and the row-executor satellites.

Operator-level coverage on hand-built plans where the differential suite's
optimizer-generated trees cannot reach: NULL-heavy aggregates, empty join
operands, missing and ambiguous columns, heterogeneous (masked) batches,
and the late-materialization containers themselves.  Every behavioural
assertion is made against *both* backends — the row executor is the oracle,
so a test that pins its behaviour pins the columnar backend's too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import (
    AggregateExpr,
    AggregateFunction,
    col,
    eq,
    lt,
)
from repro.algebra.properties import SortOrder
from repro.execution import ColumnarExecutor, ExecutionError, Executor
from repro.execution.columnar import ColumnBatch, filter_indices
from repro.execution.data import Database
from repro.execution.evaluate import ColumnNotFound, total_order_key
from repro.optimizer.plan import PhysicalOp, PhysicalPlan

BOTH_BACKENDS = [Executor, ColumnarExecutor]


def plan(op, **kwargs):
    """A bare physical plan node (costs are irrelevant to execution)."""
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


# ---------------------------------------------------------------------------
# ColumnBatch container
# ---------------------------------------------------------------------------


class TestColumnBatch:
    def test_round_trip_homogeneous_preserves_key_order(self):
        rows = [{"t.b": 2, "t.a": 1}, {"t.b": 4, "t.a": None}]
        assert ColumnBatch.from_rows(rows).to_rows() == rows
        assert list(ColumnBatch.from_rows(rows).to_rows()[0]) == ["t.b", "t.a"]

    def test_round_trip_heterogeneous_missing_vs_none(self):
        # {"x": None} and {} are different rows; the mask must keep them so.
        rows = [{"t.x": None}, {}, {"t.x": 1, "t.y": 2}]
        batch = ColumnBatch.from_rows(rows)
        assert batch.to_rows() == rows
        assert batch.mask("t.x") == [True, False, True]

    def test_empty(self):
        assert ColumnBatch.from_rows([]).to_rows() == []
        assert len(ColumnBatch.from_rows([])) == 0

    def test_take_and_select(self):
        rows = [{"t.a": i, "t.b": 10 * i} for i in range(4)]
        batch = ColumnBatch.from_rows(rows)
        assert batch.take([3, 1, 1]).to_rows() == [rows[3], rows[1], rows[1]]
        assert batch.select(["t.b"]).to_rows() == [{"t.b": 10 * i} for i in range(4)]

    def test_resolution_matches_row_rules(self):
        batch = ColumnBatch.from_rows([{"n1.n_name": "FR", "n2.n_name": "DE"}])
        assert batch.resolve(col("n1.n_name")) == "n1.n_name"
        with pytest.raises(ColumnNotFound):
            batch.resolve(col("n_name"))  # ambiguous suffix
        with pytest.raises(ColumnNotFound):
            batch.resolve(col("missing"))


class TestFilterIndices:
    def test_null_comparisons_are_false(self):
        batch = ColumnBatch.from_rows(
            [{"t.a": 1}, {"t.a": None}, {"t.a": 3}]
        )
        assert filter_indices(batch, lt(col("t.a"), 5)) == [0, 2]
        assert filter_indices(batch, eq(col("t.a"), None)) == []

    def test_missing_column_raises_only_when_reached(self):
        batch = ColumnBatch.from_rows([{"t.a": 1}, {"t.b": 2}])
        with pytest.raises(ColumnNotFound):
            filter_indices(batch, eq(col("t.b"), 2))  # row 0 lacks t.b
        # Restricted to row 1, the same predicate is fine (per-row reach).
        assert filter_indices(batch, eq(col("t.b"), 2), [1]) == [1]


# ---------------------------------------------------------------------------
# Aggregates: the hoisted extraction and NULL semantics (satellite 1)
# ---------------------------------------------------------------------------


def nulls_db():
    return Database(
        {
            "t": [
                {"g": "a", "v": 1},
                {"g": "a", "v": None},
                {"g": "a", "v": 3},
                {"g": "b", "v": None},
                {"g": "b", "v": None},
            ]
        }
    )


class TestAggregateNulls:
    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_count_star_vs_count_col_with_nulls(self, backend):
        """COUNT and COUNT(col) both count rows (NULLs included) here —
        whatever the semantics, both backends must agree on them."""
        node = plan(
            PhysicalOp.SORT_AGGREGATE,
            children=(scan("t"),),
            group_by=(col("t.g"),),
            aggregates=(
                AggregateExpr(AggregateFunction.COUNT, None, "n_star"),
                AggregateExpr(AggregateFunction.COUNT, col("t.v"), "n_col"),
                AggregateExpr(AggregateFunction.SUM, col("t.v"), "s"),
                AggregateExpr(AggregateFunction.MIN, col("t.v"), "lo"),
                AggregateExpr(AggregateFunction.MAX, col("t.v"), "hi"),
                AggregateExpr(AggregateFunction.AVG, col("t.v"), "avg"),
            ),
        )
        rows = backend(nulls_db()).execute(node)
        assert rows == [
            {"t.g": "a", "n_star": 3, "n_col": 3, "s": 4, "lo": 1, "hi": 3, "avg": 2.0},
            {"t.g": "b", "n_star": 2, "n_col": 2, "s": None, "lo": None, "hi": None, "avg": None},
        ]

    def test_backends_agree_exactly(self):
        node = plan(
            PhysicalOp.SORT_AGGREGATE,
            children=(scan("t"),),
            group_by=(col("t.g"),),
            aggregates=(
                AggregateExpr(AggregateFunction.COUNT, None, "n"),
                AggregateExpr(AggregateFunction.SUM, col("t.v"), "s"),
            ),
        )
        db = nulls_db()
        assert Executor(db).execute(node) == ColumnarExecutor(db).execute(node)

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_scalar_aggregate_over_empty_input(self, backend):
        db = Database({"t": []})
        node = plan(
            PhysicalOp.SCALAR_AGGREGATE,
            children=(scan("t"),),
            aggregates=(
                AggregateExpr(AggregateFunction.COUNT, None, "n"),
                AggregateExpr(AggregateFunction.SUM, col("t.v"), "s"),
            ),
        )
        assert backend(db).execute(node) == [{"n": 0, "s": None}]

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_grouped_aggregate_over_empty_input(self, backend):
        db = Database({"t": []})
        node = plan(
            PhysicalOp.SORT_AGGREGATE,
            children=(scan("t"),),
            group_by=(col("t.g"),),
            aggregates=(AggregateExpr(AggregateFunction.COUNT, None, "n"),),
        )
        assert backend(db).execute(node) == []


# ---------------------------------------------------------------------------
# Joins: empty-operand short circuit (satellite 2) and semantics parity
# ---------------------------------------------------------------------------


class TestJoinEmptyOperands:
    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    @pytest.mark.parametrize("empty_side", ["left", "right", "both"])
    def test_empty_operand_joins_to_empty(self, backend, empty_side):
        db = Database(
            {
                "l": [] if empty_side in ("left", "both") else [{"k": 1, "a": 2}],
                "r": [] if empty_side in ("right", "both") else [{"k": 1, "b": 3}],
            }
        )
        node = plan(
            PhysicalOp.MERGE_JOIN,
            children=(scan("l"), scan("r")),
            predicate=eq(col("l.k"), col("r.k")),
        )
        assert backend(db).execute(node) == []

    def test_row_join_short_circuits_before_probing(self):
        """The equi-orientation probe reads left[0]/right[0]; an empty
        operand must return [] without reaching it (the old code fell to
        the O(n·m) nested-loop path instead)."""
        executor = Executor(Database({}))
        rows = [{"l.k": i} for i in range(3)]
        assert executor._join([], rows, eq(col("l.k"), col("r.k"))) == []
        assert executor._join(rows, [], eq(col("l.k"), col("r.k"))) == []

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_join_with_residual_and_hash(self, backend):
        db = Database(
            {
                "l": [{"k": 1, "a": 10}, {"k": 2, "a": 20}, {"k": 2, "a": 5}],
                "r": [{"k": 2, "b": 1}, {"k": 2, "b": 9}, {"k": 3, "b": 0}],
            }
        )
        node = plan(
            PhysicalOp.MERGE_JOIN,
            children=(scan("l"), scan("r")),
            predicate=eq(col("l.k"), col("r.k")) & lt(col("r.b"), col("l.a")),
        )
        expected = [
            {"l.k": 2, "l.a": 20, "r.k": 2, "r.b": 1},
            {"l.k": 2, "l.a": 20, "r.k": 2, "r.b": 9},
            {"l.k": 2, "l.a": 5, "r.k": 2, "r.b": 1},
        ]
        assert backend(db).execute(node) == expected

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_cross_join_order(self, backend):
        db = Database({"l": [{"a": 1}, {"a": 2}], "r": [{"b": 3}, {"b": 4}]})
        node = plan(PhysicalOp.NESTED_LOOP_JOIN, children=(scan("l"), scan("r")))
        assert backend(db).execute(node) == [
            {"l.a": 1, "r.b": 3},
            {"l.a": 1, "r.b": 4},
            {"l.a": 2, "r.b": 3},
            {"l.a": 2, "r.b": 4},
        ]

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_unresolvable_equi_columns_raise(self, backend):
        db = Database({"l": [{"k": 1}], "r": [{"k": 1}]})
        node = plan(
            PhysicalOp.MERGE_JOIN,
            children=(scan("l"), scan("r")),
            predicate=eq(col("x.nope"), col("y.nothere")),
        )
        with pytest.raises(ExecutionError):
            backend(db).execute(node)


# ---------------------------------------------------------------------------
# Sort, filter, scans, materialization plumbing
# ---------------------------------------------------------------------------


class TestOperatorParity:
    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_sort_nones_last_and_missing_as_none(self, backend):
        db = Database({"t": [{"a": 3}, {"a": None}, {"a": 1}, {"a": 2}]})
        node = plan(
            PhysicalOp.SORT,
            children=(scan("t"),),
            order=SortOrder((col("t.a"),)),
        )
        assert backend(db).execute(node) == [
            {"t.a": 1},
            {"t.a": 2},
            {"t.a": 3},
            {"t.a": None},
        ]

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_sort_on_missing_column_is_stable(self, backend):
        db = Database({"t": [{"a": 3}, {"a": 1}]})
        node = plan(
            PhysicalOp.SORT,
            children=(scan("t"),),
            order=SortOrder((col("t.nope"),)),
        )
        assert backend(db).execute(node) == [{"t.a": 3}, {"t.a": 1}]

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_filter_never_evaluates_over_empty_input(self, backend):
        db = Database({"t": []})
        node = plan(
            PhysicalOp.FILTER,
            children=(scan("t"),),
            predicate=eq(col("t.definitely_missing"), 1),
        )
        assert backend(db).execute(node) == []

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_index_scan_filters(self, backend):
        db = Database({"t": [{"a": i} for i in range(5)]})
        node = plan(PhysicalOp.INDEX_SCAN, table="t", predicate=lt(col("t.a"), 2))
        assert backend(db).execute(node) == [{"t.a": 0}, {"t.a": 1}]

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_read_materialized_missing_group_raises(self, backend):
        node = plan(PhysicalOp.READ_MATERIALIZED, group=42)
        with pytest.raises(ExecutionError):
            backend(Database({})).execute(node)

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_read_materialized_returns_fresh_copies(self, backend):
        stored = ColumnBatch.from_rows([{"t.a": 1}, {"t.a": 2}])
        node = plan(PhysicalOp.READ_MATERIALIZED, group=7)
        rows = backend(Database({})).execute(node, materialized={7: stored})
        assert rows == [{"t.a": 1}, {"t.a": 2}]
        rows[0]["t.a"] = 99  # mutating the output must not touch the store
        assert stored.to_rows() == [{"t.a": 1}, {"t.a": 2}]

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_read_materialized_keeps_absent_keys_absent(self, backend):
        stored = ColumnBatch.from_rows([{"t.a": 1}, {"t.b": None}, {"t.a": 3, "t.b": 4}])
        node = plan(PhysicalOp.READ_MATERIALIZED, group=7)
        rows = backend(Database({})).execute(node, materialized={7: stored})
        assert rows == [{"t.a": 1}, {"t.b": None}, {"t.a": 3, "t.b": 4}]

    def test_columnar_accepts_columnbatch_store_values(self):
        batch = ColumnBatch.from_rows([{"t.a": 1}, {"t.a": 2}])
        node = plan(PhysicalOp.READ_MATERIALIZED, group=7)
        rows = ColumnarExecutor(Database({})).execute(node, materialized={7: batch})
        assert rows == [{"t.a": 1}, {"t.a": 2}]

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_pruning_keeps_ambiguity_ambiguous(self, backend):
        """Aggregating an ambiguous suffix must raise in both backends even
        though the columnar plan prunes columns on the way down (the
        keep-rule may not turn an ambiguous reference into a unique one)."""
        db = Database({"l": [{"name": "x", "k": 1}], "r": [{"name": "y", "k": 1}]})
        node = plan(
            PhysicalOp.SORT_AGGREGATE,
            children=(
                plan(
                    PhysicalOp.MERGE_JOIN,
                    children=(scan("l"), scan("r")),
                    predicate=eq(col("l.k"), col("r.k")),
                ),
            ),
            group_by=(col("name"),),  # matches l.name AND r.name
            aggregates=(AggregateExpr(AggregateFunction.COUNT, None, "n"),),
        )
        with pytest.raises(ColumnNotFound):
            backend(db).execute(node)

    @pytest.mark.parametrize("backend", BOTH_BACKENDS)
    def test_heterogeneous_table_rows_survive(self, backend):
        db = Database({"t": [{"a": 1, "b": 2}, {"a": 3}]})
        node = plan(
            PhysicalOp.FILTER, children=(scan("t"),), predicate=lt(col("t.a"), 10)
        )
        assert backend(db).execute(node) == [{"t.a": 1, "t.b": 2}, {"t.a": 3}]


# ---------------------------------------------------------------------------
# Sort keys: raw values where a column has one comparable type
# ---------------------------------------------------------------------------

SHARED_NAN = float("nan")
NUMBERS = st.one_of(
    st.sampled_from(
        [True, False, 0, 1, -1, 0.0, -0.0, 0.5, SHARED_NAN, float("inf"),
         2**63, 2.0**63, 2**53 + 1, float(2**53), -(2**70)]
    ),
    st.integers(),
    st.floats(),
    st.builds(float, st.just("nan")),  # a fresh NaN object every draw
)
TEXT = st.text(max_size=3)
#: int + str and None-bearing columns: only total_order_key orders them.
MIXED = st.one_of(NUMBERS, TEXT, st.none())


@st.composite
def sort_inputs(draw):
    """A batch with one or two sort columns of any kind, optionally masked,
    plus a ``t.i`` column that records where each row came from."""
    n = draw(st.integers(0, 12))
    columns, masks = {"t.i": list(range(n))}, {}
    for index in range(draw(st.integers(1, 2))):
        name = f"t.c{index}"
        kind = draw(st.sampled_from([NUMBERS, TEXT, MIXED]))
        columns[name] = draw(st.lists(kind, min_size=n, max_size=n))
        if draw(st.booleans()):
            masks[name] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return ColumnBatch(columns, n, masks)


@settings(max_examples=500, deadline=None)
@given(sort_inputs())
def test_sort_permutation_equals_total_order_key_sort(batch):
    names = [name for name in batch.columns if name != "t.i"]
    node = plan(PhysicalOp.SORT, order=SortOrder(tuple(col(name) for name in names)))

    def key(i):
        return tuple(
            total_order_key(
                batch.columns[name][i] if batch.masks.get(name, [True] * batch.length)[i] else None
            )
            for name in names
        )

    expected = sorted(range(batch.length), key=key)
    assert ColumnarExecutor._sort_batch(batch, node).columns["t.i"] == expected


# ------------------------------------------------------------- falsy masks


class FalsyDict(dict):
    """A mapping that is falsy regardless of contents (e.g. a lazy view)."""

    def __bool__(self):
        return False


def test_column_batch_honors_falsy_masks_mapping():
    columns = {"t.a": [1, None], "t.b": [10, 20]}
    masks = FalsyDict({"t.a": [True, False]})  # row 1 has no 't.a' cell
    batch = ColumnBatch(dict(columns), 2, masks)
    rows = batch.to_rows()
    assert rows == [{"t.a": 1, "t.b": 10}, {"t.b": 20}]
    # None still means "no masks": every cell present.
    dense = ColumnBatch(dict(columns), 2, None)
    assert dense.to_rows() == [
        {"t.a": 1, "t.b": 10},
        {"t.a": None, "t.b": 20},
    ]
