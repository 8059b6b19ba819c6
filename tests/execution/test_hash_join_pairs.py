"""``ColumnarExecutor._hash_join_pairs`` against the bucket loop it replaced.

The join builds on a side whose non-NULL keys are unique when there is one
(one dict, one probe) and keeps a bucket table on the right otherwise.  Every
path must emit exactly the pairs, in exactly the order, of the plain
build-on-the-right-and-probe loop kept below as the reference: left-major,
ascending right positions within each left row.  Key values cover what dict
equality makes subtle — NULLs, absent (masked) cells, ``1 == 1.0 == True``,
one NaN object repeated and distinct NaN objects — on one- and two-column
keys, with empty and single-row operands.
"""

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import col
from repro.execution import ColumnarExecutor
from repro.execution.columnar import ColumnBatch

NAN = float("nan")
NAN_B = float("nan")

VALUES = st.one_of(
    st.sampled_from([None, 0, 1, 1.0, True, False, 2, 2.0, 3, "a", "b", NAN]),
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


@st.composite
def join_inputs(draw):
    width = draw(st.integers(1, 2))
    sizes = st.one_of(st.integers(0, 1), st.integers(0, 12))
    left = draw(operand("l", width, draw(sizes)))
    right = draw(operand("r", width, draw(sizes)))
    equi = []
    for index in range(width):
        pair = (col(f"l.k{index}"), col(f"r.k{index}"))
        equi.append(pair if draw(st.booleans()) else pair[::-1])
    return left, right, equi


@settings(max_examples=400, deadline=None)
@given(join_inputs())
def test_pairs_equal_the_bucket_loop(inputs):
    left, right, equi = inputs
    assert ColumnarExecutor._hash_join_pairs(left, right, equi) == reference_pairs(
        left, right, equi
    )


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
}


@pytest.mark.parametrize("left_keys, right_keys", CASES.values(), ids=list(CASES))
def test_named_cases(left_keys, right_keys):
    left, right = batch("l", left_keys), batch("r", right_keys)
    equi = [(col("l.k0"), col("r.k0"))]
    expected = reference_pairs(left, right, equi)
    assert ColumnarExecutor._hash_join_pairs(left, right, equi) == expected


def test_masked_cells_match_nothing():
    left = batch("l", [1, 1, 2], mask=[True, False, True])
    right = batch("r", [1, 2, 2], mask=[True, True, False])
    equi = [(col("l.k0"), col("r.k0"))]
    assert ColumnarExecutor._hash_join_pairs(left, right, equi) == ([0, 2], [0, 1])
