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

Every column carries its **kind**, ``batch.kind(name)``: exactly
``frozenset(map(type, values))`` of its value list, absent cells' ``None``
included.  It is derived where values are born (:meth:`from_rows`, so
once per column image and data version; aggregates; the spill decoder's
packed tags) and inherited by views (:meth:`select`, scan views) and by
gathers of one row or more (:meth:`take`, joins) from a one-type column;
any other column is typed at its first read.  Sizing, sorting and
spilling read the kind instead of every value's type.

The same immutability lets a long-lived batch carry a :class:`KeyIndex`:
per-column ``{key: positions}`` tables that hash joins probe instead of
reading the column.  Base-table images and cached materializations get one
(:meth:`ColumnBatch.indexed`); :meth:`select` views and alias-qualified
scan views share it; :meth:`take` and every operator output start without
one, so a per-call intermediate never pays for an index.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..evaluate import AmbiguousColumn, ColumnNotFound

__all__ = ["ColumnBatch", "KeyIndex"]

Row = Dict[str, object]

#: A column's kind: the set of its values' types.
Kind = FrozenSet[type]


def one_type_kinds(kinds: Dict[str, Optional[Kind]]) -> Dict[str, Kind]:
    """The kinds a gather of one row or more inherits: the one-type ones."""
    return {name: kind for name, kind in kinds.items() if kind and len(kind) == 1}

#: ``(unique, table)``: ``{key: position}`` when the column's non-NULL keys
#: are pairwise distinct, else ``{key: array('l') of ascending positions}``.
Index = Tuple[bool, Dict[object, object]]

#: What building a column's index costs, in C-level scans of that column
#: (a ``map`` over its keys plus a comprehension over the hits): 1.3 with
#: 40 distinct keys and 2.2 with 640, measured on 3 800-row cached join
#: results.  An index that only *replaces* such scans (the join's probe
#: side) is bought once the scans already paid for that column reach this
#: price: rent-or-buy.
BUILD_COST_IN_SCANS = 2

_ATTACH = threading.Lock()


def build_index(keys: Sequence[object]) -> Index:
    """The index of one key column; a NULL key (``None``) is never entered,
    because it matches nothing.  Keys group by dict equality (``1 == 1.0 ==
    True``; a NaN object equals only itself), exactly like a hash join.
    Buckets are ``array('l')``: compact, and invisible to the cyclic GC."""
    head = [key for key in keys[:32] if key is not None]
    if len(set(head)) == len(head):  # a repeat this early rules out unique
        positions = dict(zip(keys, range(len(keys))))
        nulls = 0
        if None in positions:
            del positions[None]
            nulls = keys.count(None)
        if len(positions) == len(keys) - nulls:
            return True, positions
    buckets: Dict[object, array] = {}
    get = buckets.get
    for position, key in enumerate(keys):
        bucket = get(key)
        if bucket is None:
            buckets[key] = array("l", (position,))
        else:
            bucket.append(position)
    buckets.pop(None, None)
    return False, buckets


#: Key types whose grouping a spill round trip keeps: decoded cells are
#: equal exactly when the originals were.  A NaN is the exception — it
#: equals only itself, so two cells holding one NaN object decode to two
#: keys (see :meth:`KeyIndex.storable`).
_DECODES_ALIKE = frozenset({bool, int, float, str, bytes})


def _decodes_alike(table: Dict[object, array]) -> bool:
    kinds = set(map(type, table))
    return kinds <= _DECODES_ALIKE and (
        float not in kinds or all(len(table[key]) == 1 for key in table if key != key)
    )


class KeyIndex:
    """The lazily built key indexes of one batch's columns.

    Held by a base-table image or a cached materialization and shared by
    every view of it; a column is recognized by the identity of its value
    list, so an alias-qualified view finds its image's index under a
    different name.  ``scans`` counts the index-less scans each
    column has paid so far; the disk tier keeps that dict beside a spilled
    entry, so an entry faulted back in remembers what it has paid.  Its
    spill file keeps the entry's non-unique indexes (:meth:`storable`), and
    the holder of the faulted batch takes them back (:meth:`adopt`).

    Concurrent joins may build the same index twice; both builds are
    equal, and the last one is kept.
    """

    __slots__ = ("_columns", "_built", "scans", "__weakref__")

    def __init__(self, batch: "ColumnBatch", scans: Optional[Dict[str, int]] = None):
        # Holding each list keeps its id from being reused by another.
        self._columns = {
            id(values): (name, values, batch.masks.get(name))
            for name, values in batch.columns.items()
        }
        self._built: Dict[str, Index] = {}
        self.scans: Dict[str, int] = scans if scans is not None else {}

    def lookup(self, values: List[object], buy: bool) -> Tuple[Optional[Index], bool]:
        """``(index, built now)`` for a column of this batch, else ``(None,
        False)``.  ``buy`` builds a missing index at once; otherwise the
        caller scans instead (counted as paid) until the column's paid scans
        reach :data:`BUILD_COST_IN_SCANS`.
        """
        known = self._columns.get(id(values))
        if known is None:
            return None, False
        name, _, mask = known
        index = self._built.get(name)
        if index is not None:
            return index, False
        if not buy:
            paid = self.scans.get(name, 0)
            if paid < BUILD_COST_IN_SCANS:
                self.scans[name] = paid + 1
                return None, False
        keys: Sequence[object] = values
        if mask is not None:
            keys = [value if present else None for value, present in zip(values, mask)]
        index = self._built[name] = build_index(keys)
        return index, True

    def storable(self) -> Dict[str, Dict[object, array]]:
        """``{name: {key: positions}}`` of the non-unique indexes built so
        far whose grouping a decoded copy of the column keeps.  Unique ones
        are left out (``dict(zip(...))`` rebuilds them at C speed), and so is
        a table keyed by anything but scalars or holding one NaN object at
        two positions: decoded, those cells would be keys of their own."""
        built = dict(self._built)  # one C-level copy: joins may be building
        return {
            name: table
            for name, (unique, table) in built.items()
            if not unique and _decodes_alike(table)
        }

    def adopt(self, name: str, offsets: array, positions: array) -> bool:
        """Take back a non-unique index of column ``name`` a spill file kept:
        bucket ``i`` is ``positions[offsets[i]:offsets[i + 1]]`` and its key
        the column's value at the bucket's first position, so the table is
        the one :func:`build_index` builds — same keys, same objects, same
        order.  A section that cannot be that table (positions out of range,
        an empty bucket, a NULL or repeated key, no repeat at all) is
        refused with False; a join then builds the column's index as usual."""
        values = next((v for n, v, _ in self._columns.values() if n == name), None)
        if values is None or name in self._built or len(offsets) < 2:
            return False
        total = len(positions)
        if (
            offsets[0] != 0
            or offsets[-1] != total
            or len(offsets) - 1 >= total
            # Read as unsigned, a negative position is out of range too.
            or max(memoryview(positions).cast("B").cast("L")) >= len(values)
        ):
            return False
        buckets = [positions[a:b] for a, b in zip(offsets, offsets[1:])]
        if not all(buckets):
            return False
        table = dict(zip([values[bucket[0]] for bucket in buckets], buckets))
        if len(table) != len(buckets) or None in table:
            return False
        self._built[name] = (False, table)
        return True


class ColumnBatch:
    """A batch of rows stored column-wise.

    Attributes:
        columns: ordered mapping of column name to its value list (one value
            per row; ``None`` is a legal value).
        masks: per-column validity (presence) list, or ``None`` for columns
            every row has.  Only heterogeneous inputs ever carry masks.
        length: number of rows in the batch.
        kinds: per-column kind where known (every column is typed at
            once when not given); :meth:`kind` types the rest on demand.
        key_index: the :class:`KeyIndex` of the long-lived batch whose
            value lists this one shares, or None (not part of the data).
    """

    __slots__ = ("columns", "masks", "kinds", "length", "key_index", "__weakref__")

    def __init__(
        self,
        columns: "Dict[str, List[object]]",
        length: int,
        masks: "Optional[Dict[str, Optional[List[bool]]]]" = None,
        key_index: Optional[KeyIndex] = None,
        kinds: Optional[Dict[str, Optional[Kind]]] = None,
    ):
        self.columns = columns
        self.length = length
        # Copied into a plain dict so "falsy" below always means "empty",
        # whatever mapping type (e.g. a lazy view) the caller handed in.
        self.masks: Dict[str, Optional[List[bool]]] = (
            dict(masks) if masks is not None else {}
        )
        if kinds is None:
            kinds = {name: frozenset(map(type, values)) for name, values in columns.items()}
        self.kinds: Dict[str, Optional[Kind]] = kinds
        self.key_index = key_index

    def indexed(self, scans: Optional[Dict[str, int]] = None) -> "ColumnBatch":
        """This batch, carrying a :class:`KeyIndex` from now on (for a batch
        that outlives the call that made it: an image, a cache entry).
        ``scans`` seeds the rent-or-buy history of a fresh holder."""
        if self.key_index is None:
            with _ATTACH:  # two readers of one cache entry get one holder
                if self.key_index is None:
                    self.key_index = KeyIndex(self, scans)
        return self

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
        # KeyError *is* the heterogeneity signal; the slow path below handles these rows
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

    def kind(self, name: str) -> Kind:
        """The kind of a column, typed here once if it is not known yet."""
        kind = self.kinds.get(name)
        if kind is None:
            kind = self.kinds[name] = frozenset(map(type, self.columns[name]))
        return kind

    # ----------------------------------------------------------------- reshaping

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        """Gather the given row positions into a new batch (the row order of
        ``indices`` becomes the output order; duplicates are allowed).  The
        gathered lists are new, so the result carries no key index."""
        columns = {
            name: [values[i] for i in indices] for name, values in self.columns.items()
        }
        masks: Dict[str, Optional[List[bool]]] = {}
        for name, mask in self.masks.items():
            if mask is not None:
                masks[name] = [mask[i] for i in indices]
        kinds = one_type_kinds(self.kinds) if indices else None
        return ColumnBatch(columns, len(indices), masks, kinds=kinds)

    def select(self, names: Iterable[str]) -> "ColumnBatch":
        """A batch with just the named columns, **sharing** the value lists.

        Used for column pruning: dropping unused columns costs nothing
        because nothing is copied — the :class:`KeyIndex` included.
        """
        columns = {name: self.columns[name] for name in names}
        masks = {
            name: self.masks[name] for name in columns if self.masks.get(name) is not None
        }
        kinds = {name: self.kinds.get(name) for name in columns}
        return ColumnBatch(columns, self.length, masks, self.key_index, kinds)

    # -------------------------------------------------------------------- misc

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnBatch({len(self.columns)} cols × {self.length} rows)"
