"""What the plan DP's lean set-up computes equals what it stands for, bit for bit.

* The join formulas' block-count forms, fed :meth:`CostModel.blocks`, equal
  their rows/width methods and the formulas as they read before the block
  forms existed, compared by ``float.hex``.
* :attr:`JoinMExpr.key_orders` equals the orders built from
  :func:`equijoin_keys`, on either side of a split.
* The optimizer's on-demand ``satisfies`` table equals
  :meth:`SortOrder.satisfies` on every pair, in any read order.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.algebra.expressions import ColumnRef, col, conjunction, eq, lt, ne
from repro.algebra.properties import ANY_ORDER, SortOrder
from repro.cost.model import CostModel, CostParameters
from repro.dag.memo import JoinMExpr, equijoin_keys
from repro.optimizer.volcano import _Satisfied

# Rows ≤ 0, fractions of a block, and joins whose outer spills past the
# operator's memory (passes > 1 under the small budget).
rows = st.one_of(
    st.sampled_from([-5.0, 0.0, 0.5, 1.0, 3.0]),
    st.floats(min_value=-10.0, max_value=1e9, allow_nan=False),
    st.integers(min_value=0, max_value=10**8),
)
widths = st.one_of(
    st.sampled_from([0.0, 1.0, 8.0, 4095.0, 4096.0, 4097.0]),
    st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
)
models = st.sampled_from(
    [
        CostModel(),
        CostModel(CostParameters().with_memory(128 * 1024 * 1024)),
        CostModel(CostParameters(work_mem_bytes=5 * 4096)),
    ]
)


def bits(value: float) -> str:
    assert isinstance(value, float), value
    return value.hex()


def merge_join_as_it_read(model, left_rows, left_width, right_rows, right_width, output_rows):
    b = model.blocks(left_rows, left_width) + model.blocks(right_rows, right_width)
    b_out = model.blocks(output_rows, left_width + right_width)
    return model._cpu(b) + model._cpu(b_out) * 0.5


def nested_loop_join_as_it_read(model, outer_rows, outer_width, inner_rows, inner_width, stored):
    outer_blocks = model.blocks(outer_rows, outer_width)
    inner_blocks = model.blocks(inner_rows, inner_width)
    chunk = max(model.parameters.memory_blocks - 2, 1)
    passes = max(1, math.ceil(outer_blocks / chunk))
    cost = model._cpu(outer_blocks + passes * inner_blocks)
    rescans = passes if not stored else passes - 1
    if not stored:
        cost += model.parameters.seek_ms + model._write(inner_blocks)
    if rescans > 0:
        cost += rescans * (model.parameters.seek_ms + model._read(inner_blocks))
    return cost


@settings(max_examples=300, deadline=None)
@given(models, rows, widths, rows, widths, rows)
def test_merge_join_block_form(
    model, left_rows, left_width, right_rows, right_width, output_rows
):
    blocked = model.merge_join_blocks(
        model.blocks(left_rows, left_width),
        model.blocks(right_rows, right_width),
        model.blocks(output_rows, left_width + right_width),
    )
    args = (left_rows, left_width, right_rows, right_width, output_rows)
    assert bits(model.merge_join(*args)) == bits(blocked)
    assert bits(blocked) == bits(merge_join_as_it_read(model, *args))


@settings(max_examples=300, deadline=None)
@given(models, rows, widths, rows, widths, st.booleans())
def test_nested_loop_join_block_form(
    model, outer_rows, outer_width, inner_rows, inner_width, stored
):
    blocked = model.nested_loop_join_blocks(
        model.blocks(outer_rows, outer_width), model.blocks(inner_rows, inner_width), stored
    )
    args = (outer_rows, outer_width, inner_rows, inner_width, stored)
    assert bits(model.nested_loop_join(*args)) == bits(blocked)
    assert bits(blocked) == bits(nested_loop_join_as_it_read(model, *args))


def test_the_small_budget_spills():
    """The sampled budgets do reach multi-pass nested loops."""
    model = CostModel(CostParameters(work_mem_bytes=5 * 4096))
    single = model.nested_loop_join_blocks(3.0, 10.0, True)
    double = model.nested_loop_join_blocks(4.0, 10.0, True)
    assert double - single > model._cpu(1.0) + model._cpu(10.0)  # a rescan with its seek


# ------------------------------------------------------------- key orders

ALIASES = ("a", "b", "c", "d", "e")
columns = st.builds(ColumnRef, st.sampled_from(["k1", "k2", "k3"]), st.sampled_from(ALIASES))
comparisons = st.one_of(
    st.builds(eq, columns, columns),
    st.builds(ne, columns, columns),
    st.builds(eq, columns, st.integers(0, 9)),
    st.builds(lt, columns, st.integers(0, 9)),
)


@st.composite
def joins(draw):
    left = frozenset(draw(st.sets(st.sampled_from(ALIASES), min_size=1, max_size=4)))
    right = frozenset(draw(st.sets(st.sampled_from(ALIASES), min_size=1))) - left
    terms = draw(st.lists(comparisons, max_size=5))
    predicate = None if not terms else terms[0] if len(terms) == 1 else conjunction(terms)
    return JoinMExpr(predicate, 0, 1, left, right)


@settings(max_examples=300, deadline=None)
@given(joins())
def test_key_orders_are_the_equijoin_keys(mexpr):
    left_keys, right_keys = equijoin_keys(mexpr)
    assert mexpr.key_orders == (SortOrder(tuple(left_keys)), SortOrder(tuple(right_keys)))
    assert mexpr.key_orders is mexpr.key_orders  # worked out once
    swapped = JoinMExpr(mexpr.predicate, 1, 0, mexpr.right_aliases, mexpr.left_aliases)
    assert swapped.key_orders == mexpr.key_orders[::-1]
    # The cached orders are no field: equality and hashing ignore them.
    twin = JoinMExpr(mexpr.predicate, 0, 1, mexpr.left_aliases, mexpr.right_aliases)
    assert twin == mexpr and hash(twin) == hash(mexpr)


# ------------------------------------------------------------- satisfies

orders = st.lists(
    st.builds(
        ColumnRef, st.sampled_from(["x", "y", "z"]), st.sampled_from([None, "p", "q"])
    ),
    max_size=3,
).map(lambda cs: SortOrder(tuple(cs)))


@settings(max_examples=200, deadline=None)
@given(st.lists(orders, max_size=8, unique=True), st.randoms(use_true_random=False))
def test_satisfied_on_demand_is_satisfies(interned, rng):
    known = [ANY_ORDER] + [order for order in interned if order != ANY_ORDER]
    satisfied = _Satisfied(known)
    pairs = [(have, want) for have in range(len(known)) for want in range(len(known))]
    rng.shuffle(pairs)
    for have, want in pairs:
        assert satisfied[have, want] is known[have].satisfies(known[want])
    assert len(satisfied) == len(pairs)
    assert all(satisfied[pair] is known[pair[0]].satisfies(known[pair[1]]) for pair in pairs)


def test_satisfied_reads_only_what_is_asked():
    known = [ANY_ORDER, SortOrder((col("x", "p"),)), SortOrder((col("x"), col("y")))]
    satisfied = _Satisfied(known)
    assert satisfied[2, 1] is True and satisfied[1, 2] is False
    assert sorted(satisfied) == [(1, 2), (2, 1)]
