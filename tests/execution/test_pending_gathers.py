"""Pending gathers: a gathered column is built at its first read, once.

:meth:`ColumnBatch.take` and a join's merged output hold each column as a
:class:`~repro.execution.columnar.batch.Gather` (a source list plus a
position vector) instead of a copy; a gather over a pending column composes
the two position vectors.  Nothing a reader can observe may differ from
gathering every column at once, so on generated rows (``None``, bools,
ints big and small, floats, strings, bytes, keys missing from some rows)
and chains of takes, selects, merges and joins, a pending batch must give
the eager reference batch's rows (key order and value types included),
masks, kinds, accounted bytes and spill payload bytes.  Beyond equality:

* a parent and its :meth:`~ColumnBatch.select` views share one pending
  cell, so they read one list object, whichever reads first;
* two threads resolving one cell get one list;
* a :class:`~repro.execution.columnar.batch.KeyIndex` attached before a
  column is built still knows (and probes) it afterwards.
"""

import sys
import threading

from hypothesis import given, settings, strategies as st

from repro.algebra.expressions import col, eq
from repro.execution import ColumnarExecutor
from repro.execution.columnar import ColumnBatch
from repro.execution.columnar.batch import Gather, build_index
from repro.execution.data import Database
from repro.service.matcache import estimate_batch_bytes
from repro.storage.codec import encode_batch

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(min_value=2**63, max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.binary(max_size=2),
)


def eager_gather(cells, length: int) -> ColumnBatch:
    """The reference: every ``(name, source, positions)`` column and mask
    copied at once, under the gather path's mask and kind rules."""
    columns, masks, kinds = {}, {}, {}
    for name, source, positions in cells:
        columns[name] = [source.column(name)[i] for i in positions]
        kind = source.kinds.get(name)
        if kind and len(kind) == 1 and length:
            kinds[name] = kind
        mask = source.masks.get(name)
        if mask is not None:
            gathered = [mask[i] for i in positions]
            if not all(gathered):
                masks[name] = gathered
    return ColumnBatch(columns, length, masks, kinds=kinds)


def eager_take(batch: ColumnBatch, positions) -> ColumnBatch:
    return eager_gather([(name, batch, positions) for name in batch.columns], len(positions))


def eager_merged(left: ColumnBatch, right: ColumnBatch, left_idx, right_idx) -> ColumnBatch:
    """The reference join gather: ``{**left_row, **right_row}`` per pair."""
    cells = [
        (name, right, right_idx) if name in right.columns else (name, left, left_idx)
        for name in left.columns
    ]
    cells += [(name, right, right_idx) for name in right.columns if name not in left.columns]
    return eager_gather(cells, len(left_idx))


def typed_rows(batch: ColumnBatch):
    return [[(key, type(value), value) for key, value in row.items()] for row in batch.to_rows()]


def assert_same(pending: ColumnBatch, eager: ColumnBatch) -> None:
    """Everything a reader sees, read in the order that leaves cells unbuilt
    longest: carried kinds and sizing first, then the payload and rows."""
    assert pending.length == eager.length
    assert list(pending.columns) == list(eager.columns)
    assert pending.kinds == eager.kinds
    assert pending.masks == eager.masks
    assert estimate_batch_bytes(pending) == estimate_batch_bytes(eager)
    assert encode_batch(pending) == encode_batch(eager)
    assert typed_rows(pending) == typed_rows(eager)
    for name in pending.columns:
        assert pending.kind(name) == eager.kind(name)


@st.composite
def row_sets(draw, prefix):
    names = [f"{prefix}.{name}" for name in ("k", "a", "b")]
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        present = draw(st.lists(st.sampled_from(names), unique=True))
        rows.append({name: draw(VALUES) for name in present})
    return rows


def positions(data, length: int):
    if not length:
        return []
    return data.draw(st.lists(st.integers(0, length - 1), max_size=12))


def step(data, pending: ColumnBatch, eager: ColumnBatch):
    """One drawn operation applied to both batches."""
    op = data.draw(st.sampled_from(["take", "select", "merge", "read"]))
    if op == "take":
        chosen = positions(data, pending.length)
        return pending.take(chosen), eager_take(eager, chosen)
    if op == "select":
        names = data.draw(st.lists(st.sampled_from(list(pending.columns) or ["-"]), unique=True))
        names = [name for name in names if name in pending.columns]
        return pending.select(names), eager.select(names)
    if op == "read":  # build some cells mid-chain: later gathers mix both kinds
        for name in data.draw(st.lists(st.sampled_from(list(pending.columns) or ["-"]))):
            if name in pending.columns:
                assert pending.column(name) == eager.column(name)
        return pending, eager
    other = ColumnBatch.from_rows(data.draw(row_sets(data.draw(st.sampled_from("xy")))))
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, max(pending.length - 1, 0)),
                st.integers(0, max(other.length - 1, 0)),
            ),
            max_size=12,
        )
        if pending.length and other.length
        else st.just([])
    )
    left_idx = [pair[0] for pair in pairs]
    right_idx = [pair[1] for pair in pairs]
    return (
        ColumnarExecutor._gather_merged(pending, other, left_idx, right_idx, None),
        eager_merged(eager, other, left_idx, right_idx),
    )


@settings(max_examples=400, deadline=None)
@given(row_sets("x"), st.integers(1, 4), st.data())
def test_chains_of_pending_gathers_read_like_eager_gathers(rows, steps, data):
    pending = ColumnBatch.from_rows(rows)
    eager = ColumnBatch.from_rows(rows)
    for _ in range(steps):
        pending, eager = step(data, pending, eager)
    assert_same(pending, eager)


@st.composite
def keyed_rows(draw, prefix):
    """Rows that all carry a join key (NULL sometimes); payloads may be missing."""
    rows = draw(row_sets(prefix))
    keys = st.one_of(st.none(), st.integers(0, 3), st.sampled_from([1.0, True]))
    return [{f"{prefix}.k": draw(keys), **row} for row in rows]


@settings(max_examples=200, deadline=None)
@given(keyed_rows("l"), keyed_rows("r"), keyed_rows("m"), st.sampled_from("lr"))
def test_joins_of_joins_read_like_eager_gathers(left_rows, right_rows, more_rows, side):
    """``(l ⋈ r) ⋈ m`` through the executor's hash join: the outer join
    composes the inner one's position vectors."""
    executor = ColumnarExecutor(Database())
    left, right, more = map(ColumnBatch.from_rows, (left_rows, right_rows, more_rows))
    inner_on = eq(col("k", "l"), col("k", "r"))
    outer_on = eq(col("k", side), col("k", "m"))
    joined = executor._join_batch(executor._join_batch(left, right, inner_on), more, outer_on)
    inner = eager_join(executor, left, right, inner_on)
    assert_same(joined, eager_join(executor, inner, more, outer_on))


def eager_join(executor, left, right, predicate) -> ColumnBatch:
    if not left.length or not right.length:
        return executor._join_batch(left, right, predicate)
    pairs = executor._hash_join_pairs(left, right, [(predicate.left, predicate.right)])
    return eager_merged(left, right, *pairs)


# ---------------------------------------------------------------------------
# One cell per column: views, threads, key indexes
# ---------------------------------------------------------------------------


def joined_entry(rows: int = 300) -> ColumnBatch:
    """A join output of pending columns, like a cached materialization."""
    fact = ColumnBatch.from_rows([{"f.k": i % 7, "f.v": i * 0.5} for i in range(rows)])
    dim = ColumnBatch.from_rows([{"d.k": k, "d.label": f"d{k}"} for k in range(7)])
    executor = ColumnarExecutor(Database())
    return executor._join_batch(fact, dim, eq(col("k", "f"), col("k", "d")))


def test_joined_columns_are_pending_until_read():
    batch = joined_entry()
    assert all(type(column) is Gather for column in batch.columns.values())
    assert all(column.values is None for column in batch.columns.values())
    estimate_batch_bytes(batch)  # fixed-width columns are sized unbuilt
    assert batch.columns["f.k"].values is None
    assert batch.columns["d.label"].values is not None


def test_a_view_and_its_parent_read_one_list():
    parent = joined_entry()
    view = parent.select(["f.v", "d.label"])
    again = view.select(["f.v"])
    assert view.columns["f.v"] is parent.columns["f.v"]
    assert view.column("f.v") is parent.column("f.v") is again.column("f.v")
    assert parent.column("d.label") is view.column("d.label")
    assert view.to_rows() == [
        {"f.v": row["f.v"], "d.label": row["d.label"]} for row in parent.to_rows()
    ]


def test_two_threads_resolving_one_cell_get_one_list():
    """Readers start together, each at a different column, with the switch
    interval shortened so that builds of one cell interleave."""
    workers = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            batch = joined_entry(rows=20_000)
            names = list(batch.columns)
            barrier = threading.Barrier(workers)
            seen = [dict() for _ in range(workers)]

            def read(slot):
                barrier.wait(timeout=10)
                for step in range(len(names)):
                    name = names[(slot + step) % len(names)]
                    seen[slot][name] = batch.column(name)

            threads = [threading.Thread(target=read, args=(slot,)) for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            for name in names:
                assert {id(lists[name]) for lists in seen} == {id(batch.column(name))}, name
    finally:
        sys.setswitchinterval(interval)


def test_an_index_attached_before_resolution_is_probed_after_it():
    entry = joined_entry().indexed()
    holder = entry.key_index
    view = entry.select(["f.k", "d.label"])
    assert view.key_index is holder
    assert entry.columns["f.k"].values is None
    keys = view.column("f.k")  # builds the shared cell
    assert entry.columns["f.k"].values is keys
    index, built = holder.lookup(view.columns["f.k"], buy=True)
    assert built and index == build_index(keys)
    assert holder.lookup(entry.columns["f.k"], buy=True) == (index, False)

    # Through the executor: a small probe side finds the entry's index.
    executor = ColumnarExecutor(Database())
    probe = ColumnBatch.from_rows([{"p.k": 3}, {"p.k": 5}])
    joined = executor._join_batch(view, probe, eq(col("k", "f"), col("k", "p")))
    assert executor.key_index_probes.value == 1
    assert executor.key_index_builds.value == 0
    assert [row["f.k"] for row in joined.to_rows()] == [k for k in keys if k in (3, 5)]
