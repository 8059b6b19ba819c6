"""Columnar ≡ row on the TPC-D composite batches BQ1–BQ6 at verify size.

The ``tpcd_cold`` benchmark checks the plans it serves on
``tiny_tpcd_database(seed, orders=4000)``; the columnar differential's other
TPC-D cases run 150–200 orders of the two-query pair batch.  Here every
composite batch's MarginalGreedy plan runs on the 4 000-order database of
seed 11 through both executors, and through a columnar session whose RAM
tier holds one entry, so every materialization but the last is spilled and
read back.  Dates are ints there, prices floats, aggregates mix ints and
floats, and several queries return no rows: whatever a column's kind says,
the answers must be the row oracle's, in the same order.
"""

import pytest

from repro.catalog.tpcd import tpcd_catalog
from repro.execution import ColumnarExecutor, Executor, tiny_tpcd_database
from repro.service import OptimizerSession
from repro.storage.spill import SpillConfig
from repro.workloads.batches import composite_batch

BATCHES = range(1, 7)


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(1.0)


@pytest.fixture(scope="module")
def database():
    return tiny_tpcd_database(seed=11, orders=4000)


@pytest.fixture(scope="module")
def results(catalog):
    session = OptimizerSession(catalog)
    return {index: session.optimize(composite_batch(index)) for index in BATCHES}


@pytest.mark.parametrize("index", BATCHES)
def test_columnar_plans_answer_like_the_row_oracle(results, database, index):
    result = results[index]
    reference = Executor(database).execute_result(result.plan)
    vectorized = ColumnarExecutor(database).execute_result(result.plan)
    assert vectorized == reference
    assert result.materialized_count >= 1
    assert any(reference.values()), "a batch whose answers are all empty proves nothing"


def test_spilled_and_faulted_materializations_answer_like_the_row_oracle(
    catalog, database, tmp_path
):
    oracle = OptimizerSession(catalog, database=database, executor="row")
    served = OptimizerSession(
        catalog, database=database, spill_dir=tmp_path, spill_config=SpillConfig(max_entries=1)
    )
    for index in BATCHES:
        batch = composite_batch(index)
        expected = oracle.execute_batch(batch).rows
        for _ in range(2):  # cold: fills spill; warm: their reads fault back in
            assert served.execute_batch(batch).rows == expected
    statistics = served.matcache.statistics
    assert statistics.spills >= 5 and statistics.faults >= 5
