"""``ColumnarExecutor._hash_join_pairs`` against the bucket loop it replaced.

The join probes the smaller side into the larger side's key index when the
larger side carries a :class:`~repro.execution.columnar.batch.KeyIndex` (a
column image, a cached materialization, or a view of either), else the
larger side into the smaller side's key index when that side carries one,
else builds one
dict when the right side's non-NULL keys are unique, and keeps a bucket
table on the right otherwise.  Every path must emit exactly the pairs, in
exactly the order, of the plain build-on-the-right-and-probe loop kept below
as the reference: left-major, ascending right positions within each left
row.  Key values cover what dict equality makes subtle — NULLs, absent
(masked) cells, ``1 == 1.0 == True``, ``-0.0 == 0.0``, one NaN object
repeated and distinct NaN objects — on one- and two-column keys, with empty
and single-row operands, and with either operand a plain batch, an indexed
batch, a column-pruned view of one, or a scan view of a table.  Each input
is joined three times, so the index is rented, bought and then reused.
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import col, lt
from repro.execution import ColumnarExecutor
from repro.execution.columnar import executor as executor_module
from repro.execution.columnar import ColumnBatch
from repro.execution.data import Database

NAN = float("nan")
NAN_B = float("nan")

VALUES = st.one_of(
    st.sampled_from([None, 0, 0.0, -0.0, 1, 1.0, True, False, 2, 2.0, 3, "a", "b", NAN]),
    st.builds(float, st.just("nan")),  # a fresh NaN object every draw
)


def reference_pairs(left, right, equi):
    """The build-and-probe loop as it was before unique-side building."""
    left_refs, right_refs = [], []
    for a, b in equi:
        if left.resolves(a) and right.resolves(b):
            left_refs.append(a)
            right_refs.append(b)
        else:
            left_refs.append(b)
            right_refs.append(a)

    def key_rows(batch, refs):
        columns, masks = [], []
        for ref in refs:
            name = batch.resolve(ref)
            columns.append(batch.column(name))
            masks.append(batch.mask(name))
        if len(columns) == 1:
            values, mask = columns[0], masks[0]
            if mask is None:
                return values
            return [value if present else None for value, present in zip(values, mask)]
        keys = []
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

    build_keys = key_rows(right, right_refs)
    probe_keys = key_rows(left, left_refs)
    buckets: Dict[object, List[int]] = {}
    left_idx: List[int] = []
    right_idx: List[int] = []
    for i, key in enumerate(build_keys):
        if key is None:
            continue
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [i]
        else:
            bucket.append(i)
    for li, key in enumerate(probe_keys):
        if key is None:
            continue
        bucket = buckets.get(key)
        if bucket is not None:
            right_idx.extend(bucket)
            left_idx.extend([li] * len(bucket))
    return left_idx, right_idx


@st.composite
def operand(draw, alias, width, size):
    """A batch of ``size`` rows with key columns ``alias.k0``.. and optional
    presence masks; about half the draws have pairwise distinct keys."""
    columns, masks = {}, {}
    unique = draw(st.booleans())
    for index in range(width):
        name = f"{alias}.k{index}"
        if unique and width == 1:
            values = draw(st.lists(VALUES, min_size=size, max_size=size, unique=True))
        else:
            values = draw(st.lists(VALUES, min_size=size, max_size=size))
        columns[name] = values
        if draw(st.booleans()):
            masks[name] = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    return ColumnBatch(columns, size, masks)


def scan_view(batch, alias):
    """``batch``'s rows as table ``t`` of a database, read back through the
    unfiltered scan view (alias ``alias``) that shares its column image."""
    db = Database()
    db.add_table("t", [{name[2:]: value for name, value in row.items()} for row in batch.to_rows()])
    return ColumnarExecutor(db)._table_batch("t", alias, None)


def pairs(left, right, equi):
    return ColumnarExecutor(Database())._hash_join_pairs(left, right, equi)


@st.composite
def held(draw, batch, alias):
    """``batch`` as a plain batch, an indexed one (a cached materialization),
    a column-pruned view of an indexed one, or a scan view of a table."""
    kind = draw(st.sampled_from(["plain", "indexed", "selected", "view"]))
    if kind == "indexed":
        return batch.indexed()
    if kind == "selected":
        return batch.indexed().select(list(batch.columns))
    # A scan view needs every key column present in some row of the table.
    if kind == "view" and batch.length and all(
        any(batch.masks.get(name) or [True]) for name in batch.columns
    ):
        return scan_view(batch, alias)
    return batch


@st.composite
def join_inputs(draw):
    width = draw(st.sampled_from([1, 1, 2]))
    small, large = draw(st.integers(0, 4)), draw(st.integers(0, 12))
    sizes = (large, small) if draw(st.booleans()) else (small, large)
    left = draw(held(draw(operand("l", width, sizes[0])), "l"))
    right = draw(held(draw(operand("r", width, sizes[1])), "r"))
    equi = []
    for index in range(width):
        pair = (col(f"l.k{index}"), col(f"r.k{index}"))
        equi.append(pair if draw(st.booleans()) else pair[::-1])
    return left, right, equi


@settings(max_examples=400, deadline=None)
@given(join_inputs())
def test_pairs_equal_the_bucket_loop(inputs):
    left, right, equi = inputs
    expected = reference_pairs(left, right, equi)
    executor = ColumnarExecutor(Database())
    for _ in range(3):
        assert executor._hash_join_pairs(left, right, equi) == expected
    larger = left if right.length < left.length else right
    smaller = left if left.length < right.length else right
    smaller_holds = smaller.key_index is not None and len(equi) == 1
    if larger.key_index is not None and len(equi) == 1 and left.length != right.length:
        # Bought at the first probe on the right; on the left two scans are
        # paid first, so only the third call probes its index, and the
        # first two probe the smaller side's index when it holds one.
        probes = 3 if larger is right else 1 + 2 * smaller_holds
    else:
        probes = 3 * smaller_holds
    assert executor.key_index_probes.value == probes
    assert executor.key_index_builds.value <= 2  # one per holder at most


def batch(alias, keys, mask=None):
    name = f"{alias}.k0"
    return ColumnBatch({name: keys}, len(keys), {name: mask} if mask is not None else None)


CASES = {
    "both unique": ([3, 1, 2], [2, 3, 4]),
    "left unique, right duplicates": ([1, 2, 3], [2, 1, 2, 2, 9, 1]),
    "right unique, left duplicates": ([2, 1, 2, 2, 9, 1], [1, 2, 3]),
    "duplicates on both sides": ([1, 2, 1], [2, 1, 1, 2]),
    "NULL keys on both sides": ([None, 1, None, 2], [None, 2, None, 1]),
    "1, 1.0 and True are one key": ([1, 2.0], [True, 1.0, 2, 1]),
    "one NaN object repeated": ([NAN, 1], [NAN, NAN, 1]),
    "distinct NaN objects": ([NAN, NAN_B], [NAN_B, float("nan"), NAN]),
    "empty left": ([], [1, 1]),
    "empty right": ([1, 2], []),
    "single rows": ([1], [1]),
    "larger unique side first": ([1, 2, 3, 4, 5, 6], [6, 6, 1]),
    "left much smaller, no key index": ([7, None, 3, 7], [i % 10 for i in range(60)]),
}


@pytest.mark.parametrize("left_keys, right_keys", CASES.values(), ids=list(CASES))
def test_named_cases(left_keys, right_keys):
    left, right = batch("l", left_keys), batch("r", right_keys)
    equi = [(col("l.k0"), col("r.k0"))]
    expected = reference_pairs(left, right, equi)
    assert pairs(left, right, equi) == expected


def test_masked_cells_match_nothing():
    left = batch("l", [1, 1, 2], mask=[True, False, True])
    right = batch("r", [1, 2, 2], mask=[True, True, False])
    equi = [(col("l.k0"), col("r.k0"))]
    assert pairs(left, right, equi) == ([0, 2], [0, 1])


def test_scan_view_probes_the_key_index():
    left = batch("l", [2, None, 1.0, NAN, 7])
    right = scan_view(batch("r", [True, 2, None, 2, NAN, 1, 2.0, NAN_B]), "r")
    equi = [(col("r.k0"), col("l.k0"))]
    assert pairs(left, right, equi) == reference_pairs(left, right, equi)
    ((unique, table),) = right.key_index._built.values()
    assert not unique
    assert {key: list(at) for key, at in table.items()} == {
        True: [0, 5], 2: [1, 3, 6], NAN: [4], NAN_B: [7]
    }


def test_masked_scan_view_indexes_present_cells():
    """A heterogeneous table's key column has a mask: its absent cells, like
    its NULLs, never enter the index."""
    right = scan_view(
        batch("r", [1, 2, 2, None, 1, 3], mask=[True, True, False, True, False, True]), "r"
    )
    assert "r.k0" in right.masks
    left = batch("l", [2, 1])
    equi = [(col("l.k0"), col("r.k0"))]
    assert pairs(left, right, equi) == reference_pairs(left, right, equi) == ([0, 1], [1, 0])
    (index,) = right.key_index._built.values()
    assert index == (True, {1: 0, 2: 1, 3: 5})


def test_larger_left_rents_then_buys():
    """On the left an index replaces a scan, so the column pays scans until
    they reach the build's price (two); on the right it replaces the build,
    so it is built at once.  Either way the pairs stay left-major."""
    executor = ColumnarExecutor(Database())
    cached = batch("l", [3, 1, 3, 2, 1, 3, None, 2]).indexed()
    small = batch("r", [3, 2, 3])
    equi = [(col("l.k0"), col("r.k0"))]
    expected = reference_pairs(cached, small, equi)
    assert expected == ([0, 0, 2, 2, 3, 5, 5, 7], [0, 2, 0, 2, 1, 0, 2, 1])
    counts = []
    for _ in range(4):
        assert executor._hash_join_pairs(cached, small, equi) == expected
        counts.append((executor.key_index_builds.value, executor.key_index_probes.value))
    assert counts == [(0, 0), (0, 0), (1, 1), (1, 2)]
    assert cached.key_index.scans == {"l.k0": 2}

    flipped = [(col("r.k0"), col("l.k0"))]
    executor = ColumnarExecutor(Database())
    right = batch("l", [3, 1, 3, 2, 1, 3, None, 2]).indexed()
    assert executor._hash_join_pairs(small, right, flipped) == reference_pairs(
        small, right, flipped
    )
    assert (executor.key_index_builds.value, executor.key_index_probes.value) == (1, 1)
    assert right.key_index.scans == {}


def test_take_and_filter_outputs_never_build_an_index():
    cached = batch("l", list(range(10)) * 3).indexed()
    taken = cached.take(range(cached.length))
    filtered = ColumnarExecutor._filter_batch(cached, lt(col("l.k0"), 8))
    assert taken.key_index is None and filtered.key_index is None
    small = batch("r", [1, 4])
    equi = [(col("l.k0"), col("r.k0"))]
    executor = ColumnarExecutor(Database())
    for operand in (taken, filtered) * 3:
        assert executor._hash_join_pairs(operand, small, equi) == reference_pairs(
            operand, small, equi
        )
    assert (executor.key_index_builds.value, executor.key_index_probes.value) == (0, 0)
    assert cached.key_index._built == {} and cached.key_index.scans == {}


def test_smaller_side_probes_its_image_index(monkeypatch):
    """A 40-row dimension image joined to a larger batch without a key
    index (a join or filter output): every join probes the image's index,
    built once, instead of building a fresh 40-row table, and the pairs
    keep the left-major order whichever side the image is on."""
    db = Database()
    db.add_table("d", [{"k0": key, "v": f"d{key}"} for key in range(40)])
    executor = ColumnarExecutor(db)
    keys = [(7 * i) % 45 for i in range(600)]
    equi = [(col("l.k0"), col("r.k0"))]
    fresh = []
    build = executor_module.build_index
    monkeypatch.setattr(
        executor_module, "build_index", lambda keys: fresh.append(keys) or build(keys)
    )
    for left, right in (
        (executor._table_batch("d", "l", None), batch("r", keys)),
        (batch("l", keys), executor._table_batch("d", "r", None)),
    ):
        for _ in range(2):
            assert executor._hash_join_pairs(left, right, equi) == reference_pairs(
                left, right, equi
            )
    assert (executor.key_index_builds.value, executor.key_index_probes.value) == (1, 4)
    assert fresh == []
