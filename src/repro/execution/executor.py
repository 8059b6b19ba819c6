"""An in-memory interpreter for physical plans.

The executor walks a :class:`~repro.optimizer.plan.PhysicalPlan` bottom-up
and produces lists of rows.  It exists to *validate* the optimizer and the
MQO sharing machinery (a consolidated plan reading materialized results
must return the same rows as the unshared plans), not to be fast: joins are
executed as hash joins on the equi-join columns with a residual filter, and
all intermediate results are fully materialized in memory.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from ..algebra.expressions import (
    AggregateExpr,
    AggregateFunction,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Predicate,
    conjuncts,
)
from ..obs import NULL_TRACER
from ..optimizer.plan import PhysicalOp, PhysicalPlan
from ..optimizer.volcano import BestCostResult
from .data import Database, Row
from .evaluate import (
    AmbiguousColumn,
    ColumnNotFound,
    evaluate_predicate,
    resolve_column,
    resolve_in_names,
    total_order_key,
)

__all__ = ["ExecutionError", "Executor"]


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be interpreted."""


def _prefix_row(row: Row, alias: str) -> Row:
    return {f"{alias}.{key}": value for key, value in row.items()}


class Executor:
    """Interprets physical plans against an in-memory :class:`Database`."""

    #: The tracer backend-internal spans go to; the serving layer points it
    #: at the session's tracer in ``attach_database``.  Class-level default
    #: so a bare executor (tests, benchmarks) is always safe to construct.
    tracer = NULL_TRACER

    def __init__(self, database: Database):
        self.database = database

    # ------------------------------------------------------------------ API

    def execute(
        self,
        plan: PhysicalPlan,
        materialized: Optional[Mapping[int, List[Row]]] = None,
    ) -> List[Row]:
        """Execute one plan; ``materialized`` maps group ids to stored results."""
        return self._run(plan, self._make_store(materialized))

    def _make_store(self, materialized: Optional[Mapping[int, List[Row]]]) -> Dict:
        """The mutable materialized-results store one execution call works on.

        A hook so backends can attach per-call state to the store (the SQL
        executor keeps the temp tables it loaded stored results into).
        """
        return dict(materialized if materialized is not None else {})

    def execute_result(
        self,
        result: BestCostResult,
        materialized: Optional[Mapping[int, List[Row]]] = None,
        fill_listener: Optional[Callable[[int, PhysicalPlan, List[Row]], None]] = None,
        queries: Optional[Iterable[str]] = None,
        observer: Optional[Callable[[PhysicalPlan, List[Row], float], None]] = None,
    ) -> Dict[str, List[Row]]:
        """Execute a whole ``bestCost`` result: materializations first, then queries.

        Materialization plans may read other materialized nodes, so they are
        executed in dependency order.

        Args:
            result: the consolidated plan (query plans + materialization plans).
            materialized: already-available rows per group id (cache hits from
                a :class:`~repro.service.matcache.MaterializationCache`); the
                corresponding materialization plans are *not* re-executed.
            fill_listener: called as ``fill_listener(gid, plan, rows)`` for
                every materialization actually computed by this call, so a
                cache can be populated with the freshly produced rows (in
                the backend's stored form, see :meth:`_materialize`).
            queries: restrict row production to these query names (all when
                ``None``); materializations always run — they are the shared
                state the restriction is meant to avoid recomputing later.
            observer: instrumentation hook called as ``observer(plan, rows,
                elapsed_seconds)`` for every materialization (same stored
                form) and query plan this call actually *executed* (cache hits are not observed —
                nothing was measured).  The hook only fires after a plan ran
                successfully; an operator error propagates before the failed
                plan is observed.  Callers aggregating observations across a
                batch should buffer them and discard the buffer when this
                method raises, so a failing query cannot leak partial
                measurements into a statistics store.
        """
        store: Dict[int, List[Row]] = self._make_store(materialized)
        pending = {
            gid: plan
            for gid, plan in result.materialization_plans.items()
            if gid not in store
        }
        while pending:
            progressed = False
            for gid, plan in list(pending.items()):
                needed = set(plan.uses_materialized())
                if needed <= set(store):
                    rows = self._timed_run(self._materialize, plan, store, observer)
                    store[gid] = rows
                    del pending[gid]
                    progressed = True
                    if fill_listener is not None:
                        fill_listener(gid, plan, rows)
            if not progressed:
                raise ExecutionError(
                    f"circular dependency among materialized nodes: {sorted(pending)}"
                )
        wanted = None if queries is None else set(queries)
        return {
            name: self._timed_run(self._run, plan, store, observer)
            for name, plan in result.query_plans.items()
            if wanted is None or name in wanted
        }

    @staticmethod
    def _timed_run(
        run: Callable,
        plan: PhysicalPlan,
        store: Mapping[int, List[Row]],
        observer: Optional[Callable[[PhysicalPlan, List[Row], float], None]],
    ) -> List[Row]:
        """Run one top-level plan, reporting (rows, wall seconds) on success."""
        if observer is None:
            return run(plan, store)
        started = time.perf_counter()
        rows = run(plan, store)
        observer(plan, rows, time.perf_counter() - started)
        return rows

    def _materialize(self, plan: PhysicalPlan, store: Mapping[int, List[Row]]):
        """A materialization plan's result in the form this backend stores
        and re-reads it: rows here, a ``ColumnBatch`` in the columnar one."""
        return self._run(plan, store)

    # ------------------------------------------------------------- operators

    def _run(self, plan: PhysicalPlan, store: Mapping[int, List[Row]]) -> List[Row]:
        op = plan.op
        if op is PhysicalOp.TABLE_SCAN:
            return self._scan(plan)
        if op is PhysicalOp.INDEX_SCAN:
            rows = self._scan(plan)
            return [r for r in rows if evaluate_predicate(r, plan.predicate)]
        if op is PhysicalOp.FILTER:
            rows = self._run(plan.children[0], store)
            return [r for r in rows if evaluate_predicate(r, plan.predicate)]
        if op is PhysicalOp.SORT:
            rows = self._run(plan.children[0], store)
            return self._sort(rows, plan)
        if op in (PhysicalOp.MERGE_JOIN, PhysicalOp.NESTED_LOOP_JOIN):
            left = self._run(plan.children[0], store)
            right = self._run(plan.children[1], store)
            return self._join(left, right, plan.predicate)
        if op is PhysicalOp.INDEX_NL_JOIN:
            outer = self._run(plan.children[0], store)
            if plan.table is None or plan.alias is None:
                raise ExecutionError("index nested-loop join is missing its inner table")
            inner = [
                _prefix_row(row, plan.alias) for row in self.database.table(plan.table)
            ]
            return self._join(outer, inner, plan.predicate)
        if op in (PhysicalOp.SORT_AGGREGATE, PhysicalOp.SCALAR_AGGREGATE):
            rows = self._run(plan.children[0], store)
            return self._aggregate(rows, plan)
        if op is PhysicalOp.MATERIALIZE:
            return self._run(plan.children[0], store)
        if op is PhysicalOp.READ_MATERIALIZED:
            if plan.group not in store:
                raise ExecutionError(f"materialized result for G{plan.group} is not available")
            return [dict(row) for row in store[plan.group]]
        raise ExecutionError(f"cannot execute operator {op}")

    def _scan(self, plan: PhysicalPlan) -> List[Row]:
        if plan.table is None:
            raise ExecutionError("scan node is missing its table")
        alias = plan.alias or plan.table
        return [_prefix_row(row, alias) for row in self.database.table(plan.table)]

    @staticmethod
    def _sort(rows: List[Row], plan: PhysicalPlan) -> List[Row]:
        columns = plan.order.columns
        if not columns:
            return list(rows)

        def key(row: Row) -> Tuple:
            values = []
            for column in columns:
                try:
                    value = resolve_column(row, column)
                except ColumnNotFound:
                    value = None
                values.append(total_order_key(value))
            return tuple(values)

        return sorted(rows, key=key)

    def _join(
        self, left: List[Row], right: List[Row], predicate: Optional[Predicate]
    ) -> List[Row]:
        equi: List[Tuple[ColumnRef, ColumnRef]] = []
        residual: List[Predicate] = []
        for conjunct in conjuncts(predicate):
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op is ComparisonOp.EQ
                and isinstance(conjunct.right, ColumnRef)
            ):
                equi.append((conjunct.left, conjunct.right))
            else:
                residual.append(conjunct)

        if not left or not right:
            # An inner join with an empty operand is empty, full stop.  This
            # also keeps the empty-but-schema-known case out of the O(n·m)
            # nested-loop fallback below, which it used to hit because the
            # hash path orients its equi-columns by probing left[0]/right[0].
            return []

        output: List[Row] = []
        if equi:
            # Hash join; each equi pair is oriented independently, so
            # `t.x = u.y AND u.z = t.w` works no matter how it was written.
            # Orientation works on the operands' *schemas* (the union of row
            # keys), not on a sampled first row — a column a heterogeneous
            # operand only carries on later rows must still orient the pair.
            left_names = frozenset(key for row in left for key in row)
            right_names = frozenset(key for row in right for key in row)

            def side(names: frozenset, column: ColumnRef) -> Optional[str]:
                try:
                    return resolve_in_names(names, column)
                except AmbiguousColumn:
                    return None

            left_cols: List[str] = []
            right_cols: List[str] = []
            for a, b in equi:
                la, rb = side(left_names, a), side(right_names, b)
                if la is not None and rb is not None:
                    left_cols.append(la)
                    right_cols.append(rb)
                    continue
                lb, ra = side(left_names, b), side(right_names, a)
                if lb is not None and ra is not None:
                    left_cols.append(lb)
                    right_cols.append(ra)
                    continue
                # The conjunct references an alias neither operand has.
                raise ExecutionError(
                    f"hash join cannot resolve join columns of '{a} = {b}' "
                    f"against either operand (unknown alias?)"
                )

            def key_for(row: Row, names: List[str]) -> Optional[Tuple]:
                # SQL equality semantics: a NULL (or absent) key component
                # matches nothing, exactly as the residual/nested-loop path
                # evaluates `a = b` to false when an operand is None.
                values = []
                for name in names:
                    value = row.get(name)
                    if value is None:
                        return None
                    values.append(value)
                return tuple(values)

            buckets: Dict[Tuple, List[Row]] = defaultdict(list)
            for row in right:
                build_key = key_for(row, right_cols)
                if build_key is not None:
                    buckets[build_key].append(row)
            for row in left:
                probe_key = key_for(row, left_cols)
                if probe_key is None:
                    continue
                for match in buckets.get(probe_key, ()):
                    merged = {**row, **match}
                    if all(evaluate_predicate(merged, p) for p in residual):
                        output.append(merged)
            return output

        for lrow in left:
            for rrow in right:
                merged = {**lrow, **rrow}
                if evaluate_predicate(merged, predicate):
                    output.append(merged)
        return output

    def _aggregate(self, rows: List[Row], plan: PhysicalPlan) -> List[Row]:
        groups: Dict[Tuple, List[int]] = defaultdict(list)
        for index, row in enumerate(rows):
            key = []
            for column in plan.group_by:
                try:
                    key.append(resolve_column(row, column))
                except AmbiguousColumn:
                    raise
                except ColumnNotFound:
                    # SQL semantics: a missing grouping column is a NULL
                    # group key, matching the aggregate-*input* extraction
                    # below (which already degrades missing cells to None).
                    key.append(None)
            groups[tuple(key)].append(index)
        if not plan.group_by and not groups:
            groups[()] = []

        # Resolve each aggregate's input column once over the whole input.
        # Doing it inside the per-group loop re-ran resolve_column's key scan
        # per (group, row) pair, which dominated aggregation on wide rows.
        extracted: List[Optional[List[object]]] = []
        for aggregate in plan.aggregates:
            if aggregate.func is AggregateFunction.COUNT or aggregate.column is None:
                extracted.append(None)
                continue
            values: List[object] = []
            for row in rows:
                try:
                    values.append(resolve_column(row, aggregate.column))
                except ColumnNotFound:
                    values.append(None)
            extracted.append(values)

        output: List[Row] = []
        for key, members in groups.items():
            out: Row = {}
            for column, value in zip(plan.group_by, key):
                out[str(column)] = value
            for aggregate, values in zip(plan.aggregates, extracted):
                out[aggregate.alias] = self._aggregate_value(aggregate, members, values)
            output.append(out)
        return output

    @staticmethod
    def _aggregate_value(
        aggregate: AggregateExpr,
        members: List[int],
        values: Optional[List[object]],
    ) -> object:
        """Fold one group given pre-extracted input values.

        ``members`` are the group's row positions in the aggregate's input;
        ``values`` is the full extracted input column (missing/unresolvable
        cells already ``None``), or ``None`` for COUNT / column-less
        aggregates which never look at values.
        """
        if aggregate.func is AggregateFunction.COUNT:
            return len(members)
        if values is None:  # non-COUNT aggregate without a column: no input
            return None
        present = [values[i] for i in members if values[i] is not None]
        if not present:
            return None
        if aggregate.func is AggregateFunction.SUM:
            return sum(present)
        if aggregate.func is AggregateFunction.MIN:
            return min(present)
        if aggregate.func is AggregateFunction.MAX:
            return max(present)
        if aggregate.func is AggregateFunction.AVG:
            return sum(present) / len(present)
        raise ExecutionError(f"unsupported aggregate function {aggregate.func}")
