"""A column's kind is the set of its values' types, whoever made the column.

:class:`~repro.execution.columnar.batch.ColumnBatch` carries a kind per
column so that sizing (``estimate_batch_bytes``), spilling
(``encode_batch``) and sorting need not read every value's type.  A kind
that lies would change a spill file's layout, a cache entry's byte books or
a sort's comparisons, so every kind a batch carries must equal
``set(map(type, values))`` of its column:

* for batches built by :meth:`ColumnBatch.from_rows`, gathered by
  :meth:`~ColumnBatch.take`, narrowed by :meth:`~ColumnBatch.select` and
  decoded from a spill payload, on generated rows mixing ``None``, bools,
  ints (big ones too), floats, strings and bytes, with keys missing from
  some rows (masked columns);
* for the output of every operator the columnar executor runs (scans,
  filters, joins, sorts, aggregates, materializations, cached reads), and for
  each such output after a spill encode/decode round trip, on star and
  TPC-D databases perturbed with NULLs, ints turned floats and keys
  dropped from some rows.

Unperturbed data has one type per column, and there every column of every
operator output with rows carries its kind from birth: nothing is typed at
a read.
"""

import functools
import random

from hypothesis import given, settings, strategies as st

from repro.catalog.tpcd import tpcd_catalog
from repro.execution import ColumnarExecutor, Executor, tiny_tpcd_database
from repro.execution.columnar import ColumnBatch
from repro.execution.data import Database
from repro.service import OptimizerSession
from repro.service.matcache import estimate_batch_bytes, estimate_rows_bytes
from repro.storage.codec import decode_batch, encode_batch
from repro.workloads.batches import composite_batch
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.integers(min_value=2**63, max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=3),
    st.binary(max_size=2),
)
NAMES = ("a", "b", "c")


def carried_kinds_are_true(batch: ColumnBatch) -> bool:
    """Every kind the batch carries equals its column's types (read without
    :meth:`ColumnBatch.kind`, which would fill in the ones it lacks)."""
    return all(
        kind is None or kind == set(map(type, batch.columns[name]))
        for name, kind in batch.kinds.items()
    )


def assert_kinds(batch: ColumnBatch) -> None:
    assert set(batch.kinds) <= set(batch.columns)
    assert carried_kinds_are_true(batch)
    decoded = decode_batch(encode_batch(batch))
    assert set(decoded.kinds) == set(decoded.columns)
    assert carried_kinds_are_true(decoded)
    assert estimate_batch_bytes(batch) == estimate_batch_bytes(decoded)
    assert estimate_batch_bytes(batch) == estimate_rows_bytes(batch.to_rows())
    for name, values in batch.columns.items():
        assert batch.kind(name) == set(map(type, values))


@st.composite
def row_sets(draw):
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        present = draw(st.lists(st.sampled_from(NAMES), unique=True))
        rows.append({name: draw(VALUES) for name in present})
    return rows


@settings(max_examples=300, deadline=None)
@given(row_sets(), st.data())
def test_built_gathered_selected_and_decoded_batches_carry_true_kinds(rows, data):
    built = ColumnBatch.from_rows(rows)
    assert set(built.kinds) == set(built.columns)
    assert_kinds(built)
    indices = data.draw(st.lists(st.integers(0, max(built.length - 1, 0)), max_size=15))
    taken = built.take(indices if built.length else [])
    assert_kinds(taken)
    names = data.draw(st.lists(st.sampled_from(list(built.columns) or ["-"]), unique=True))
    assert_kinds(taken.select([name for name in names if name in taken.columns]))
    assert_kinds(built.indexed().select(list(built.columns)))


# ---------------------------------------------------------------------------
# Every operator of the columnar executor, on star and TPC-D data
# ---------------------------------------------------------------------------


class KindCheckingExecutor(ColumnarExecutor):
    """Checks the output of every operator it runs, by operator."""

    def __init__(self, database, complete: bool):
        super().__init__(database)
        self.complete = complete
        self.operators = set()

    def _vector(self, plan, store, needed):
        batch = super()._vector(plan, store, needed)
        self.operators.add(plan.op.name)
        assert carried_kinds_are_true(batch), plan.op
        if self.complete and batch.length:
            assert set(batch.kinds) == set(batch.columns), plan.op
            assert None not in batch.kinds.values(), plan.op
        assert_kinds(batch)
        return batch


def star_world():
    catalog = star_schema_catalog(n_dimensions=3, key_fanout=4)
    session = OptimizerSession(catalog)
    batches = [random_star_batch(3, seed=seed, n_dimensions=3) for seed in (3, 4)]
    plans = [
        session.optimize(batch, strategy)
        for batch in batches
        for strategy in ("greedy", "volcano")
    ]
    return lambda seed: star_schema_database(
        fact_rows=150, seed=seed, n_dimensions=3, key_fanout=4
    ), plans


def tpcd_world():
    session = OptimizerSession(tpcd_catalog(1.0))
    plans = [session.optimize(composite_batch(2)), session.optimize(composite_batch(5))]
    return lambda seed: tiny_tpcd_database(seed=seed, orders=40), plans


@functools.lru_cache(maxsize=None)
def world(name):
    """``(database maker, optimized plans)``, built once per test session."""
    return {"star": star_world, "tpcd": tpcd_world}[name]()


RATES = st.sampled_from([0.0, 0.1, 0.5])


def perturbed(database: Database, seed: int, nulls: float, floats: float, drops: float):
    """A copy of ``database`` with NULL cells, ints turned floats, and
    payload keys (labels, comments) dropped from some rows."""
    rng = random.Random(seed)
    copy = Database()
    for table, rows in database.tables.items():
        changed = []
        for row in rows:
            row = dict(row)
            for key, value in list(row.items()):
                if key.endswith(("_label", "_comment")) and rng.random() < drops:
                    del row[key]
                elif rng.random() < nulls:
                    row[key] = None
                elif type(value) is int and rng.random() < floats:
                    row[key] = float(value)
            changed.append(row)
        copy.add_table(table, changed)
    return copy


def outcome(executor, plan):
    try:
        return executor.execute_result(plan)
    except AssertionError:
        raise
    except Exception as error:  # both backends must fail alike
        return type(error)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["star", "tpcd"]),
    st.integers(0, 10_000),
    RATES,
    RATES,
    RATES,
)
def test_every_operator_output_carries_true_kinds(name, seed, nulls, floats, drops):
    make, plans = world(name)
    database = perturbed(make(seed % 7), seed, nulls, floats, drops)
    pure = nulls == floats == drops == 0.0
    for result in plans:
        executor = KindCheckingExecutor(database, complete=pure)
        assert outcome(executor, result.plan) == outcome(Executor(database), result.plan)
        assert {"TABLE_SCAN", "MATERIALIZE", "READ_MATERIALIZED"} <= executor.operators or (
            result.materialized_count == 0
        )


def test_operator_coverage():
    """The plans above run every operator the kind check should see."""
    seen = set()
    for make, plans in map(world, ["star", "tpcd"]):
        for result in plans:
            executor = KindCheckingExecutor(make(1), complete=True)
            executor.execute_result(result.plan)
            seen |= executor.operators
    assert {
        "TABLE_SCAN",
        "FILTER",
        "SORT",
        "SORT_AGGREGATE",
        "MATERIALIZE",
        "READ_MATERIALIZED",
    } <= seen
    assert seen & {"MERGE_JOIN", "NESTED_LOOP_JOIN", "INDEX_NL_JOIN"}
