"""The vectorized executor: the same plans, evaluated over column batches.

:class:`ColumnarExecutor` subclasses the row interpreter and overrides only
:meth:`~repro.execution.executor.Executor._run`, so the whole public surface
— ``execute``, ``execute_result``, the dependency-ordered materialization
loop, ``fill_listener`` and ``observer`` hooks — is shared code.  Internally
every operator consumes and produces :class:`~repro.execution.columnar
.batch.ColumnBatch` objects; rows exist only at the boundaries (the late
materialization step of a *query* plan — a materialization stays a batch in
the store and goes to ``fill_listener`` as one), where
:meth:`ColumnBatch.to_rows` reproduces the row executor's output bit for bit.

Three things make this fast where the interpreter is slow:

* **one transposition per table and data version**: a scan is a zero-copy,
  alias-qualified view of the table's column image
  (:meth:`~repro.execution.data.Database.column_image`), which the
  database builds once per :attr:`~repro.execution.data.Database.version`
  and drops on the next change;
* **one resolution / compilation pass per batch** instead of per row —
  predicates go through :func:`~repro.execution.columnar.compile
  .filter_indices` (selection vectors), joins hash raw key columns (on a
  side with unique keys when there is one) and emit index pairs before
  gathering any payload, aggregates extract each input column once;
* **column pruning**: every operator tells its child which columns it
  actually needs (``needed``), so scans under an aggregate never expose the
  columns the aggregate will not read, and ``READ_MATERIALIZED`` serves a
  zero-copy column subset of the cached batch.

The row executor stays the differential oracle: for every supported plan the
two backends must return identical rows (see
``tests/execution/test_columnar_differential.py``).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ...algebra.expressions import (
    AggregateFunction,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Predicate,
    conjuncts,
    referenced_columns,
)
from ...optimizer.plan import PhysicalOp, PhysicalPlan
from ..data import Row
from ..evaluate import AmbiguousColumn, ColumnNotFound, total_order_key
from ..executor import ExecutionError, Executor
from .batch import ColumnBatch
from .compile import filter_indices

__all__ = ["ColumnarExecutor"]

Needed = Optional[FrozenSet[ColumnRef]]


def _matches(name: str, ref: ColumnRef) -> bool:
    """Could ``resolve_column`` pick ``name`` for ``ref``?  (The keep-rule.)

    Deliberately *over*-approximate — it keeps every suffix match, not just
    the winning one — so pruning can never turn an ambiguous reference into
    a unique one and silently change resolution semantics.
    """
    return name == ref.name or name.endswith("." + ref.name)


def _prune_names(names: Sequence[str], needed: FrozenSet[ColumnRef]) -> List[str]:
    return [name for name in names if any(_matches(name, ref) for ref in needed)]


def _unique_positions(keys: Sequence[object]) -> Optional[Dict[object, int]]:
    """``{key: position}`` over the non-NULL keys when no two are equal (dict
    equality: ``1 == 1.0 == True``; a NaN equals only itself), else None."""
    positions = dict(zip(keys, range(len(keys))))
    nulls = 0
    if None in positions:  # NULL keys match nothing
        del positions[None]
        nulls = keys.count(None)
    return positions if len(positions) == len(keys) - nulls else None


def _extend(needed: Needed, refs) -> Needed:
    """Widen a pruning set with extra references (None stays "everything")."""
    if needed is None:
        return None
    return needed | frozenset(refs)


class ColumnarExecutor(Executor):
    """Vectorized drop-in for :class:`~repro.execution.executor.Executor`."""

    #: Hint for callers holding cached batches (the session's matcache path):
    #: this backend consumes ``ColumnBatch`` store values directly and hands
    #: its materializations out as batches (``fill_listener`` / ``observer``).
    prefers_batches = True

    # ------------------------------------------------------------- overrides

    def _run(self, plan: PhysicalPlan, store: Mapping[int, List[Row]]) -> List[Row]:
        return self._vector(plan, store, None).to_rows()

    def _materialize(self, plan: PhysicalPlan, store: Mapping[int, List[Row]]) -> ColumnBatch:
        # No late materialization for a result only plans read back.
        return self._vector(plan, store, None)

    # ------------------------------------------------------------- dispatch

    def _vector(
        self, plan: PhysicalPlan, store: Mapping[int, List[Row]], needed: Needed
    ) -> ColumnBatch:
        op = plan.op
        if op is PhysicalOp.TABLE_SCAN:
            if plan.table is None:
                raise ExecutionError("scan node is missing its table")
            return self._table_batch(plan.table, plan.alias or plan.table, needed)
        if op is PhysicalOp.INDEX_SCAN:
            if plan.table is None:
                raise ExecutionError("scan node is missing its table")
            batch = self._table_batch(
                plan.table,
                plan.alias or plan.table,
                _extend(needed, self._predicate_refs(plan.predicate)),
            )
            return self._filter_batch(batch, plan.predicate)
        if op is PhysicalOp.FILTER:
            child = self._vector(
                plan.children[0],
                store,
                _extend(needed, self._predicate_refs(plan.predicate)),
            )
            return self._filter_batch(child, plan.predicate)
        if op is PhysicalOp.SORT:
            child = self._vector(
                plan.children[0], store, _extend(needed, plan.order.columns)
            )
            return self._sort_batch(child, plan)
        if op in (PhysicalOp.MERGE_JOIN, PhysicalOp.NESTED_LOOP_JOIN):
            child_needed = _extend(needed, self._predicate_refs(plan.predicate))
            left = self._vector(plan.children[0], store, child_needed)
            right = self._vector(plan.children[1], store, child_needed)
            return self._join_batch(left, right, plan.predicate)
        if op is PhysicalOp.INDEX_NL_JOIN:
            child_needed = _extend(needed, self._predicate_refs(plan.predicate))
            outer = self._vector(plan.children[0], store, child_needed)
            if plan.table is None or plan.alias is None:
                raise ExecutionError("index nested-loop join is missing its inner table")
            inner = self._table_batch(plan.table, plan.alias, child_needed)
            return self._join_batch(outer, inner, plan.predicate)
        if op in (PhysicalOp.SORT_AGGREGATE, PhysicalOp.SCALAR_AGGREGATE):
            child_needed = frozenset(plan.group_by) | frozenset(
                aggregate.column
                for aggregate in plan.aggregates
                if aggregate.column is not None
            )
            child = self._vector(plan.children[0], store, child_needed)
            return self._aggregate_batch(child, plan)
        if op is PhysicalOp.MATERIALIZE:
            return self._vector(plan.children[0], store, needed)
        if op is PhysicalOp.READ_MATERIALIZED:
            return self._read_materialized(plan, store, needed)
        raise ExecutionError(f"cannot execute operator {op}")

    @staticmethod
    def _predicate_refs(predicate: Optional[Predicate]):
        return referenced_columns(predicate) if predicate is not None else ()

    # ------------------------------------------------------------- operators

    def _table_batch(self, table: str, alias: str, needed: Needed) -> ColumnBatch:
        """The table's column image, alias-qualified and pruned: a view that
        shares the image's value lists, so a scan copies nothing."""
        image = self.database.column_image(table)
        names = [f"{alias}.{key}" for key in image.columns]
        if needed is not None:
            names = _prune_names(names, needed)
        cut = len(alias) + 1
        return ColumnBatch(
            {name: image.columns[name[cut:]] for name in names},
            image.length,
            {name: image.masks[name[cut:]] for name in names if name[cut:] in image.masks},
        )

    @staticmethod
    def _filter_batch(batch: ColumnBatch, predicate: Optional[Predicate]) -> ColumnBatch:
        if batch.length == 0:
            # The row executor never evaluates a predicate over zero rows, so
            # neither do we — resolution errors must not appear out of thin air.
            return batch
        selected = filter_indices(batch, predicate)
        if len(selected) == batch.length:
            return batch
        return batch.take(selected)

    @staticmethod
    def _sort_batch(batch: ColumnBatch, plan: PhysicalPlan) -> ColumnBatch:
        columns = plan.order.columns
        if not columns or batch.length <= 1:
            return batch
        none_key = total_order_key(None)
        decorated: List[List[Tuple]] = []
        for column in columns:
            try:
                name = batch.resolve(column)
            except ColumnNotFound:
                # Row semantics: an unresolvable sort column sorts as None.
                decorated.append([none_key] * batch.length)
                continue
            values = batch.column(name)
            mask = batch.mask(name)
            if mask is None:
                decorated.append([total_order_key(value) for value in values])
            else:
                decorated.append(
                    [
                        none_key if not present else total_order_key(value)
                        for value, present in zip(values, mask)
                    ]
                )
        keys = list(zip(*decorated))
        order = sorted(range(batch.length), key=keys.__getitem__)
        return batch.take(order)

    def _join_batch(
        self, left: ColumnBatch, right: ColumnBatch, predicate: Optional[Predicate]
    ) -> ColumnBatch:
        merged_names = list(left.columns) + [
            name for name in right.columns if name not in left.columns
        ]
        if left.length == 0 or right.length == 0:
            return ColumnBatch({name: [] for name in merged_names}, 0)

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

        if equi:
            left_idx, right_idx = self._hash_join_pairs(left, right, equi)
        else:
            # Cross product in the row executor's (outer, inner) order; the
            # full predicate is then a residual filter over the pairs.
            left_idx = [li for li in range(left.length) for _ in range(right.length)]
            right_idx = list(range(right.length)) * left.length
            residual = [predicate] if predicate is not None else []

        if residual and left_idx:
            refs = frozenset(
                ref for conjunct in residual for ref in referenced_columns(conjunct)
            )
            keep = set(_prune_names(merged_names, refs)) if refs else set()
            mini = self._gather_merged(left, right, left_idx, right_idx, keep)
            selected = list(range(len(left_idx)))
            for conjunct in residual:
                if not selected:
                    break
                selected = filter_indices(mini, conjunct, selected)
            left_idx = [left_idx[i] for i in selected]
            right_idx = [right_idx[i] for i in selected]

        return self._gather_merged(left, right, left_idx, right_idx, None)

    @staticmethod
    def _hash_join_pairs(
        left: ColumnBatch,
        right: ColumnBatch,
        equi: List[Tuple[ColumnRef, ColumnRef]],
    ) -> Tuple[List[int], List[int]]:
        """Build-and-probe on raw key columns, emitting index pairs only."""
        left_refs: List[ColumnRef] = []
        right_refs: List[ColumnRef] = []
        for a, b in equi:
            if left.resolves(a) and right.resolves(b):
                left_refs.append(a)
                right_refs.append(b)
            elif left.resolves(b) and right.resolves(a):
                left_refs.append(b)
                right_refs.append(a)
            else:
                raise ExecutionError(
                    f"hash join cannot resolve join columns of '{a} = {b}' "
                    f"against either operand (unknown alias?)"
                )

        def key_rows(batch: ColumnBatch, refs: List[ColumnRef]) -> Sequence[object]:
            """Per-row join keys; ``None`` marks a row that can match nothing.

            SQL equality semantics, mirrored by the row backend: a NULL key
            component — or one the row does not carry at all — never equals
            anything, so such rows neither build nor probe.
            """
            columns = []
            masks = []
            for ref in refs:
                name = batch.resolve(ref)
                columns.append(batch.column(name))
                masks.append(batch.mask(name))
            if len(columns) == 1:
                values, mask = columns[0], masks[0]
                if mask is None:
                    return values
                # Missing and NULL coincide here: neither row can match.
                return [
                    value if present else None for value, present in zip(values, mask)
                ]
            keys: List[object] = []
            for i in range(batch.length):
                key = []
                for values, mask in zip(columns, masks):
                    if mask is not None and not mask[i]:
                        key = None
                        break
                    value = values[i]
                    if value is None:
                        key = None
                        break
                    key.append(value)
                keys.append(tuple(key) if key is not None else None)
            return keys

        left_keys = key_rows(left, left_refs)
        right_keys = key_rows(right, right_refs)

        # Build on a side whose non-NULL keys are unique (smaller side
        # first): one dict, one probe, no buckets.  Every path emits the
        # pairs in the same order: left-major, ascending right positions
        # within each left row.
        sides = [(True, left_keys), (False, right_keys)]
        if len(right_keys) < len(left_keys):
            sides.reverse()
        for build_left, keys in sides:
            position = _unique_positions(keys)
            if position is None:
                continue
            if build_left:
                # A counting sort of the matched right positions by the left
                # row they match: stable, so ascending within each left row.
                groups: List[List[int]] = [[] for _ in keys]
                for ri, li in enumerate(map(position.get, right_keys)):
                    if li is not None:
                        groups[li].append(ri)
                return (
                    [li for li, group in enumerate(groups) for _ in group],
                    [ri for group in groups for ri in group],
                )
            of_left = list(map(position.get, left_keys))
            left_idx = [li for li, ri in enumerate(of_left) if ri is not None]
            return left_idx, list(map(of_left.__getitem__, left_idx))

        # Duplicates on both sides: buckets on the right, probe the left.
        buckets: Dict[object, List[int]] = {}
        left_idx, right_idx = [], []
        for i, key in enumerate(right_keys):
            if key is None:
                continue
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [i]
            else:
                bucket.append(i)
        get = buckets.get
        for li, key in enumerate(left_keys):
            if key is None:
                continue
            bucket = get(key)
            if bucket is not None:
                right_idx.extend(bucket)
                left_idx.extend([li] * len(bucket))
        return left_idx, right_idx

    @staticmethod
    def _gather_merged(
        left: ColumnBatch,
        right: ColumnBatch,
        left_idx: List[int],
        right_idx: List[int],
        keep: Optional[set],
    ) -> ColumnBatch:
        """Gather ``{**left_row, **right_row}`` pairs into a merged batch.

        Duplicate names keep the left operand's *position* but take the right
        operand's *values* — exactly the dict-merge the row executor does.
        ``keep`` (when given) restricts to a name subset (the residual
        mini-batch), preserving merged order.
        """
        columns: Dict[str, List[object]] = {}
        masks: Dict[str, Optional[List[bool]]] = {}

        def emit(name: str, source: ColumnBatch, indices: List[int]) -> None:
            if keep is not None and name not in keep:
                return
            values = source.columns[name]
            columns[name] = [values[i] for i in indices]
            mask = source.masks.get(name)
            if mask is not None:
                gathered = [mask[i] for i in indices]
                if not all(gathered):
                    masks[name] = gathered

        for name in left.columns:
            if name in right.columns:
                emit(name, right, right_idx)
            else:
                emit(name, left, left_idx)
        for name in right.columns:
            if name not in left.columns:
                emit(name, right, right_idx)
        return ColumnBatch(columns, len(left_idx), masks)

    def _aggregate_batch(self, batch: ColumnBatch, plan: PhysicalPlan) -> ColumnBatch:
        n = batch.length
        if plan.group_by and n == 0:
            # Zero input rows with grouping ⇒ zero groups; the row executor
            # never resolves a column it has no row to resolve against.
            empty: Dict[str, List[object]] = {}
            for column in plan.group_by:
                empty[str(column)] = []
            for aggregate in plan.aggregates:
                empty[aggregate.alias] = []
            return ColumnBatch(empty, 0)
        if plan.group_by:
            key_columns: List[List[object]] = []
            for column in plan.group_by:
                try:
                    name = batch.resolve(column)
                except AmbiguousColumn:
                    raise  # an ambiguous reference stays a hard error
                except ColumnNotFound:
                    # SQL semantics: a missing grouping column is one NULL
                    # group, matching the row backend and the SQL oracle.
                    key_columns.append([None] * n)
                    continue
                mask = batch.mask(name)
                values = batch.column(name)
                if mask is not None and not all(mask):
                    values = [
                        value if present else None
                        for value, present in zip(values, mask)
                    ]
                key_columns.append(values)
            group_of: Dict[object, int] = {}
            members: List[List[int]] = []
            keys_in_order: List[Tuple] = []
            if len(key_columns) == 1:
                row_keys: Sequence[object] = [(v,) for v in key_columns[0]]
            else:
                row_keys = list(zip(*key_columns))
            for i, key in enumerate(row_keys):
                gi = group_of.get(key)
                if gi is None:
                    gi = group_of[key] = len(members)
                    members.append([])
                    keys_in_order.append(key)
                members[gi].append(i)
        else:
            keys_in_order = [()]
            members = [list(range(n))]

        extracted: List[Optional[List[object]]] = []
        for aggregate in plan.aggregates:
            if aggregate.func is AggregateFunction.COUNT or aggregate.column is None:
                extracted.append(None)
                continue
            try:
                name = batch.resolve(aggregate.column)
            except ColumnNotFound:
                # Row semantics: an unresolvable aggregate input reads as
                # None everywhere (and so folds to None).
                extracted.append([None] * n)
                continue
            values = batch.column(name)
            mask = batch.mask(name)
            if mask is not None:
                values = [
                    value if present else None for value, present in zip(values, mask)
                ]
            extracted.append(values)

        # Output columns in the row executor's key order: group-by columns
        # (stringified, later duplicates overwrite values but keep the first
        # position — plain dict assignment gives exactly that), then aliases.
        out_columns: Dict[str, List[object]] = {}
        for index, column in enumerate(plan.group_by):
            out_columns[str(column)] = [key[index] for key in keys_in_order]
        for aggregate, values in zip(plan.aggregates, extracted):
            out_columns[aggregate.alias] = [
                self._aggregate_value(aggregate, group, values) for group in members
            ]
        return ColumnBatch(out_columns, len(members))

    def _read_materialized(
        self, plan: PhysicalPlan, store: Mapping[int, List[Row]], needed: Needed
    ) -> ColumnBatch:
        if plan.group not in store:
            raise ExecutionError(f"materialized result for G{plan.group} is not available")
        batch = store[plan.group]
        if not isinstance(batch, ColumnBatch):
            # Rows handed in by the caller: transposed once per call (the
            # store is this call's own dict).
            batch = store[plan.group] = ColumnBatch.from_rows(batch)
        if needed is not None:
            batch = batch.select(_prune_names(list(batch.columns), needed))
        return batch
