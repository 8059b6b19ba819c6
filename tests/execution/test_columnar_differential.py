"""Differential harness: the columnar backend is row-identical to the oracle.

The vectorized backend (:mod:`repro.execution.columnar`) is only allowed to
change *speed*, never *answers*: for every registered strategy, over random
star-join batches and TPC-D-style batches with genuinely profitable
sharing, cold and warm against the materialization cache, it must return
exactly the rows the tuple-at-a-time interpreter returns — and drive the
cache identically (same hit/miss/fill counters), because the serving layer
makes admission and eviction decisions from those counters.

Most assertions here are intentionally *stronger* than the multiset
(order-normalized) bar the issue sets: the executors agree on row order and
on dict key order too, so plain ``==`` is used where possible, with the
order-normalized comparison as the documented minimum in the parametrized
sweep.
"""

import pytest

from repro.algebra import builder as qb
from repro.algebra.expressions import col, eq, lt
from repro.algebra.logical import QueryBatch
from repro.catalog.tpcd import tpcd_catalog
from repro.execution import ColumnarExecutor, Executor, tiny_tpcd_database
from repro.service import OptimizerSession
from repro.service.matcache import MaterializationCache
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)

ALL_STRATEGIES = ("volcano", "greedy", "marginal-greedy", "share-all", "exhaustive")


def compare_all(session, batch):
    """Every registered strategy; only exhaustive gets a cardinality bound."""
    results = session.compare(batch, strategies=ALL_STRATEGIES[:-1])
    results.update(session.compare(batch, strategies=("exhaustive",), cardinality=2))
    return results


def canonical(rows):
    """Order-independent (multiset) canonical form of a list of result rows."""
    return sorted(
        tuple(
            sorted(
                (k, round(v, 6) if isinstance(v, float) else v) for k, v in row.items()
            )
        )
        for row in rows
    )


@pytest.fixture(scope="module")
def star_catalog():
    return star_schema_catalog(n_dimensions=4)


@pytest.fixture(scope="module")
def star_db():
    return star_schema_database(seed=9, n_dimensions=4)


def tpcd_pair_batch():
    """Two overlapping orders⋈lineitem aggregates the greedies share."""

    def make(name, cutoff):
        return (
            qb.scan("orders")
            .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
            .filter(lt(col("o_orderdate"), cutoff))
            .aggregate(["o_orderdate"], [("sum", "l_extendedprice", "revenue")])
            .query(name)
        )

    return QueryBatch("pair", (make("A", 19960101), make("B", 19970101)))


class TestEveryStrategyRowIdentical:
    """Backend × strategy × workload, executed directly (no cache)."""

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_random_star_batches(self, star_catalog, star_db, seed):
        batch = random_star_batch(4, seed=seed, n_dimensions=4)
        session = OptimizerSession(star_catalog)
        results = compare_all(session, batch)
        assert set(results) == set(ALL_STRATEGIES)
        some_rows = False
        for name, result in results.items():
            reference = Executor(star_db).execute_result(result.plan)
            vectorized = ColumnarExecutor(star_db).execute_result(result.plan)
            assert set(reference) == set(vectorized)
            for query_name in reference:
                some_rows = some_rows or bool(reference[query_name])
                # The documented bar is order-normalized equality …
                assert canonical(vectorized[query_name]) == canonical(
                    reference[query_name]
                ), f"strategy {name} diverges on {query_name} (seed {seed})"
                # … but the backends actually agree bit for bit.
                assert vectorized[query_name] == reference[query_name], (
                    f"strategy {name}: row/key order differs on {query_name}"
                )
        assert some_rows, "batch should return some rows"

    def test_tpcd_pair_with_profitable_sharing(self):
        catalog = tpcd_catalog(1.0)
        db = tiny_tpcd_database(seed=7, orders=200)
        session = OptimizerSession(catalog)
        results = compare_all(session, tpcd_pair_batch())
        assert any(r.materialized_count >= 1 for r in results.values()), (
            "the harness should cover at least one genuinely shared execution"
        )
        for name, result in results.items():
            reference = Executor(db).execute_result(result.plan)
            vectorized = ColumnarExecutor(db).execute_result(result.plan)
            for query_name in reference:
                assert vectorized[query_name] == reference[query_name], (
                    f"strategy {name} diverges on {query_name}"
                )


class TestColdAndWarmCacheParity:
    """Full serving-path parity: rows *and* cache counters, cold and warm.

    One session per backend replays identical traffic; after every batch the
    rows must match and the materialization caches must have recorded the
    same hits, misses and fills — a backend that probed or filled the cache
    differently would skew the serving layer's admission decisions.
    """

    @pytest.mark.parametrize("strategy", ["greedy", "share-all"])
    @pytest.mark.parametrize("mixed_first", ["columnar", "row"])
    def test_star_traffic_cold_then_warm(self, star_catalog, star_db, strategy, mixed_first):
        """Besides one session per backend, a third "mixed" configuration
        alternates a row and a columnar session over *one* cache, so batch
        fills are read as rows and row fills as batches: same rows, same
        counters, same byte books."""
        sessions = {
            backend: OptimizerSession(star_catalog, executor=backend, database=star_db)
            for backend in ("row", "columnar")
        }
        shared = MaterializationCache()
        mixed_order = [mixed_first, "row" if mixed_first == "columnar" else "columnar"]
        mixed = [
            OptimizerSession(star_catalog, executor=backend, database=star_db, matcache=shared)
            for backend in mixed_order
        ]
        for step, seed in enumerate((3, 3, 4)):  # cold, warm repeat, overlapping batch
            batch = random_star_batch(3, seed=seed, n_dimensions=4)
            outputs = {}
            for backend, session in sessions.items():
                result = session.optimize(batch, strategy=strategy)
                outputs[backend] = session.execute_plans(result)
            turn = mixed[step % 2]
            outputs["mixed"] = turn.execute_plans(turn.optimize(batch, strategy=strategy))
            row_run = outputs["row"]
            for other in (outputs["columnar"], outputs["mixed"]):
                assert other.rows == row_run.rows
                assert other.cache_hits == row_run.cache_hits
                assert other.materializations == row_run.materializations
        row_stats = sessions["row"].matcache.statistics.as_dict()
        assert sessions["columnar"].matcache.statistics.as_dict() == row_stats
        assert shared.statistics.as_dict() == row_stats
        assert (
            shared.current_bytes
            == sessions["columnar"].matcache.current_bytes
            == sessions["row"].matcache.current_bytes
        )

    def test_tpcd_traffic_cold_then_warm(self):
        catalog = tpcd_catalog(1.0)
        db = tiny_tpcd_database(seed=7, orders=150)
        sessions = {
            backend: OptimizerSession(catalog, executor=backend, database=db)
            for backend in ("row", "columnar")
        }
        for _ in range(2):  # identical traffic twice: cold fills, then hits
            outputs = {}
            for backend, session in sessions.items():
                result = session.optimize(tpcd_pair_batch(), strategy="greedy")
                outputs[backend] = session.execute_plans(result)
            assert outputs["columnar"].rows == outputs["row"].rows
            assert outputs["columnar"].cache_hits == outputs["row"].cache_hits
        row_stats = sessions["row"].matcache.statistics.as_dict()
        col_stats = sessions["columnar"].matcache.statistics.as_dict()
        assert col_stats == row_stats
        assert row_stats["hits"] > 0, "warm pass should have hit the cache"

    def test_warm_hits_served_as_batches_match_row_serving(self):
        """A columnar session's warm pass reads ColumnBatch cache values."""
        catalog = tpcd_catalog(1.0)
        db = tiny_tpcd_database(seed=7, orders=150)
        session = OptimizerSession(catalog, executor="columnar", database=db)
        cold = session.execute_plans(session.optimize(tpcd_pair_batch(), strategy="greedy"))
        warm = session.execute_plans(session.optimize(tpcd_pair_batch(), strategy="greedy"))
        assert warm.rows == cold.rows
        assert warm.cache_hits >= 1, "warm pass must reuse materializations"


class TestForcedSharedExecution:
    """Shared execution parity independent of what the strategies choose."""

    @pytest.mark.parametrize("seed", [3, 4])
    def test_forced_materialization_sets(self, star_catalog, star_db, seed):
        batch = random_star_batch(3, seed=seed, n_dimensions=4)
        session = OptimizerSession(star_catalog)
        prepared = session.prepare(batch)
        dag, engine = prepared.dag, prepared.engine
        shareable = dag.shareable_nodes()
        assert shareable, "star batches must expose shareable nodes"
        for count in (1, min(3, len(shareable)), len(shareable)):
            forced = engine.evaluate(frozenset(shareable[:count]))
            reference = Executor(star_db).execute_result(forced)
            vectorized = ColumnarExecutor(star_db).execute_result(forced)
            for query_name in reference:
                assert vectorized[query_name] == reference[query_name], (
                    f"forced sharing of {count} nodes diverges on {query_name}"
                )

    def test_forced_sorted_variants(self, star_catalog, star_db):
        batch = random_star_batch(3, seed=6, n_dimensions=4)
        session = OptimizerSession(star_catalog)
        prepared = session.prepare(batch)
        dag, engine = prepared.dag, prepared.engine
        sorted_candidates = [c for c in dag.shareable_candidates() if c.order][:3]
        assert sorted_candidates, "expected sorted materialization candidates"
        forced = engine.evaluate(frozenset(sorted_candidates))
        reference = Executor(star_db).execute_result(forced)
        vectorized = ColumnarExecutor(star_db).execute_result(forced)
        for query_name in reference:
            assert vectorized[query_name] == reference[query_name]
