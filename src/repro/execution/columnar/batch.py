"""The column batch: per-column value vectors with a validity mask.

A :class:`ColumnBatch` is the unit of data the vectorized backend
(:class:`~repro.execution.columnar.executor.ColumnarExecutor`) moves between
operators: one Python list per column instead of one dict per row.  The
row-dict representation of the interpreter (:mod:`repro.execution.executor`)
remains the API of record — every batch converts **losslessly** to and from
it through :meth:`to_rows` / :meth:`from_rows`, and those conversions happen
only at the boundaries (query outputs; a row backend reading an entry the
materialization cache holds as a batch, or the reverse), which is the "late
materialization" half of the design.

Semantics mirror the row world exactly:

* a column holds one value per row, ``None`` included — ``None`` is a
  *value* (a present key whose value is null), exactly as in a row dict;
* the **validity mask** records *presence*: ``mask[i] is False`` means row
  ``i`` did not have the column's key at all, which in row land makes
  :func:`~repro.execution.evaluate.resolve_column` raise
  :class:`~repro.execution.evaluate.ColumnNotFound`.  Homogeneous batches
  (the overwhelmingly common case) carry no mask at all (``mask is None``
  ⇒ every row has the key);
* column names are the qualified row keys (``"orders.o_orderdate"``), kept
  in row-dict insertion order so :meth:`to_rows` reproduces the exact key
  order the row executor would have produced;
* :meth:`resolve` applies the same resolution rules as
  :func:`~repro.execution.evaluate.resolve_column` — exact qualified name
  first, then unique suffix match — but once per batch instead of once per
  row.

Batches are immutable by convention: operators never mutate a column list
they received; :meth:`take` and :meth:`select` build new containers (and
:meth:`select` shares the underlying value lists, which is what makes
column pruning on a cached batch free).  The convention is load-bearing:
every scan of a base table shares the lists of that table's column image
(:meth:`~repro.execution.data.Database.column_image`), and a cached
materialization shares its lists with every read of it, so one mutated
list would corrupt every later result that reads it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..evaluate import AmbiguousColumn, ColumnNotFound

__all__ = ["ColumnBatch"]

Row = Dict[str, object]


class ColumnBatch:
    """A batch of rows stored column-wise.

    Attributes:
        columns: ordered mapping of column name to its value list (one value
            per row; ``None`` is a legal value).
        masks: per-column validity (presence) list, or ``None`` for columns
            every row has.  Only heterogeneous inputs ever carry masks.
        length: number of rows in the batch.
    """

    __slots__ = ("columns", "masks", "length", "__weakref__")

    def __init__(
        self,
        columns: "Dict[str, List[object]]",
        length: int,
        masks: "Optional[Dict[str, Optional[List[bool]]]]" = None,
    ):
        self.columns = columns
        self.length = length
        # Copied into a plain dict so "falsy" below always means "empty",
        # whatever mapping type (e.g. a lazy view) the caller handed in.
        self.masks: Dict[str, Optional[List[bool]]] = (
            dict(masks) if masks is not None else {}
        )

    # ------------------------------------------------------------ construction

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "ColumnBatch":
        """Transpose row dicts into columns (exact, including missing keys)."""
        if not rows:
            return cls({}, 0)
        names = list(rows[0])
        width = len(names)
        try:
            if all(len(row) == width for row in rows):
                # Homogeneous fast path: every row has exactly the first
                # row's keys (a row with the same arity but different keys
                # raises KeyError below and falls through).
                return cls({name: [row[name] for row in rows] for name in names}, len(rows))
        # repro-lint: disable=bare-except-swallow -- KeyError *is* the heterogeneity signal; the slow path below handles these rows
        except KeyError:
            pass
        # Heterogeneous slow path: collect names in first-seen order and
        # record presence per cell.
        for row in rows:
            for key in row:
                if key not in names:  # names stays tiny; linear scan is fine
                    names.append(key)
        columns: Dict[str, List[object]] = {}
        masks: Dict[str, Optional[List[bool]]] = {}
        missing = object()
        for name in names:
            values = [row.get(name, missing) for row in rows]
            mask = [value is not missing for value in values]
            if all(mask):
                columns[name] = values
            else:
                columns[name] = [None if v is missing else v for v in values]
                masks[name] = mask
        return cls(columns, len(rows), masks)

    # --------------------------------------------------------------- conversion

    def to_rows(self) -> List[Row]:
        """Materialize the batch back into fresh row dicts (the late step)."""
        if not self.columns:
            return [{} for _ in range(self.length)]
        names = list(self.columns)
        if not self.masks:
            cols = [self.columns[name] for name in names]
            return [dict(zip(names, values)) for values in zip(*cols)]
        rows: List[Row] = []
        masks = [self.masks.get(name) for name in names]
        cols = [self.columns[name] for name in names]
        for i in range(self.length):
            row: Row = {}
            for name, col, mask in zip(names, cols, masks):
                if mask is None or mask[i]:
                    row[name] = col[i]
            rows.append(row)
        return rows

    # --------------------------------------------------------------- resolution

    def resolve(self, column) -> str:
        """Resolve a :class:`~repro.algebra.expressions.ColumnRef` to a name.

        Same rules as :func:`~repro.execution.evaluate.resolve_column`, once
        per batch: exact qualified name first, then unique suffix match.
        Raises :class:`~repro.execution.evaluate.ColumnNotFound` when the
        reference matches no column or more than one.
        """
        if column.qualifier is not None:
            qualified = f"{column.qualifier}.{column.name}"
            if qualified in self.columns:
                return qualified
        suffix = f".{column.name}"
        matches = [
            name for name in self.columns if name.endswith(suffix) or name == column.name
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ColumnNotFound(
                f"column {column} not found in batch with columns {sorted(self.columns)}"
            )
        raise AmbiguousColumn(
            f"column {column} is ambiguous in batch: matches {sorted(matches)}"
        )

    def resolves(self, column) -> bool:
        """True when :meth:`resolve` would succeed (the join-orientation probe)."""
        try:
            self.resolve(column)
            return True
        except ColumnNotFound:
            return False

    def column(self, name: str) -> List[object]:
        return self.columns[name]

    def mask(self, name: str) -> Optional[List[bool]]:
        """The presence mask of a column (None ⇒ present in every row)."""
        return self.masks.get(name)

    # ----------------------------------------------------------------- reshaping

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather the given row positions into a new batch (the row order of
        ``indices`` becomes the output order; duplicates are allowed)."""
        columns = {
            name: [values[i] for i in indices] for name, values in self.columns.items()
        }
        masks: Dict[str, Optional[List[bool]]] = {}
        for name, mask in self.masks.items():
            if mask is not None:
                masks[name] = [mask[i] for i in indices]
        return ColumnBatch(columns, len(indices), masks)

    def select(self, names: Iterable[str]) -> "ColumnBatch":
        """A batch with just the named columns, **sharing** the value lists.

        Used for column pruning: dropping unused columns costs nothing
        because nothing is copied.
        """
        columns = {name: self.columns[name] for name in names}
        masks = {
            name: self.masks[name] for name in columns if self.masks.get(name) is not None
        }
        return ColumnBatch(columns, self.length, masks)

    # -------------------------------------------------------------------- misc

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnBatch({len(self.columns)} cols × {self.length} rows)"
