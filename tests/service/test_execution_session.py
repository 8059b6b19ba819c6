"""End-to-end execution through the serving layer.

Covers the session execute API (cold vs. warm, bit-identical rows, zero
re-materializations on warm traffic — the PR's acceptance criterion),
cache invalidation on data change, the scheduler's row-returning mode, and
the concurrency regression test for the shared-cache locking.
"""

import dataclasses
import threading

import pytest

from repro.catalog.tpcd import tpcd_catalog
from repro.execution import Executor, tiny_tpcd_database
from repro.service import BatchExecution, BatchScheduler, OptimizerSession
from repro.workloads.batches import composite_batch
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(1.0)


@pytest.fixture()
def database():
    return tiny_tpcd_database(seed=3, orders=400)


class TestSessionExecute:
    def test_requires_attached_database(self, catalog):
        session = OptimizerSession(catalog)
        with pytest.raises(RuntimeError, match="no database attached"):
            session.execute_batch(composite_batch(1))

    def test_warm_execute_bit_identical_with_zero_rematerializations(
        self, catalog, database
    ):
        """The acceptance criterion, as a tier-1 test."""
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(1)

        cold = session.execute_batch(batch)
        assert cold.result.materialized_count >= 1, "BQ1 should share a subexpression"
        assert cold.materializations == len(cold.result.plan.materialization_plans)
        assert cold.cache_hits == 0

        warm = session.execute_batch(batch)
        assert warm.materializations == 0, "warm execution must not re-materialize"
        assert warm.cache_hits == cold.materializations
        assert warm.rows == cold.rows  # bit-identical, not just multiset-equal
        assert session.statistics.batches_executed == 2
        assert session.statistics.materialization_cache_hits == cold.materializations

    def test_execution_matches_standalone_executor(self, catalog, database):
        """Rows served through the cache equal a plain uncached execution."""
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(2)
        served = session.execute_batch(batch)
        again = session.execute_batch(batch)
        plain = Executor(database).execute_result(served.result.plan)
        assert served.rows == plain
        assert again.rows == plain

    def test_execute_single_query(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(1)
        reference = session.execute_batch(batch)
        for query in batch:
            rows = session.execute(query)
            assert rows == reference.rows[query.name]

    def test_overlapping_batches_share_materializations(self, catalog, database):
        """A later batch containing the same shared node hits the cache."""
        session = OptimizerSession(catalog, database=database)
        first = session.execute_batch(composite_batch(1))
        assert first.materializations >= 1
        # BQ2 extends BQ1; any BQ1 materialization that BQ2's plan reuses
        # (same fingerprint + stored order) is a cache hit, not a recompute.
        second = session.execute_batch(composite_batch(2))
        total = len(second.result.plan.materialization_plans)
        assert second.cache_hits + second.materializations == total
        assert second.cache_hits >= 1, (
            "BQ2 should reuse at least one row set BQ1 materialized"
        )

    def test_data_change_invalidates_cache(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(1)
        cold = session.execute_batch(batch)
        assert cold.materializations >= 1

        # Shrink the orders table; cached joins over it are now stale.
        database.replace_table("orders", database.table("orders")[:50])
        changed = session.execute_batch(batch)
        assert changed.cache_hits == 0
        assert changed.materializations >= 1
        assert session.statistics.data_invalidations >= 1
        plain = Executor(database).execute_result(changed.result.plan)
        assert changed.rows == plain

    def test_touch_invalidates_in_place_mutation(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(1)
        session.execute_batch(batch)
        database.table("orders").clear()
        database.touch()
        changed = session.execute_batch(batch)
        assert changed.cache_hits == 0
        assert all(not rows for rows in changed.rows.values())

    def test_attach_different_database_invalidates(self, catalog):
        db_a = tiny_tpcd_database(seed=3, orders=400)
        db_b = tiny_tpcd_database(seed=4, orders=400)
        session = OptimizerSession(catalog, database=db_a)
        batch = composite_batch(1)
        rows_a = session.execute_batch(batch)
        session.attach_database(db_b)
        rows_b = session.execute_batch(batch)
        assert rows_b.cache_hits == 0
        assert rows_b.rows == Executor(db_b).execute_result(rows_b.result.plan)
        # Reattaching the original database must not serve db_b's rows.
        session.attach_database(db_a)
        rows_a_again = session.execute_batch(batch)
        assert rows_a_again.cache_hits == 0
        assert rows_a_again.rows == rows_a.rows

    def test_attach_identical_content_database_keeps_the_cache(self, catalog):
        """Invalidation is content-token driven: swapping to a *different
        object* holding byte-identical data keeps every cached row valid
        (the same property that lets a restarted process trust its spill
        files)."""
        session = OptimizerSession(catalog, database=tiny_tpcd_database(seed=3, orders=400))
        batch = composite_batch(1)
        cold = session.execute_batch(batch)
        assert cold.materializations >= 1
        session.attach_database(tiny_tpcd_database(seed=3, orders=400))
        warm = session.execute_batch(batch)
        assert warm.rows == cold.rows
        assert warm.materializations == 0
        assert session.statistics.data_invalidations == 0

    def test_foreign_result_is_rejected(self, catalog, database):
        """Group ids are memo-local: a result from another session must not
        be resolved against this session's memo (wrong groups would poison
        the fingerprint-keyed cache)."""
        other = OptimizerSession(catalog)
        foreign = other.optimize(composite_batch(1))
        session = OptimizerSession(catalog, database=database)
        with pytest.raises(ValueError, match="different memo"):
            session.execute_plans(foreign)
        # A result without a memo uid is foreign too, never trusted.
        with pytest.raises(ValueError, match="different memo"):
            session.execute_plans(dataclasses.replace(foreign, memo_uid=None))
        # After reset() the session has a new memo; its own old results are
        # stale in exactly the same way.
        own = session.optimize(composite_batch(1))
        session.reset()
        with pytest.raises(ValueError, match="different memo"):
            session.execute_plans(own)

    def test_execute_plans_matches_execute_batch(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(1)
        result = session.optimize(batch)
        planned = session.execute_plans(result)
        assert planned.rows == OptimizerSession(
            catalog, database=database
        ).execute_batch(batch).rows

    def test_reset_drops_cached_materializations(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(1)
        cold = session.execute_batch(batch)
        assert cold.materializations >= 1
        session.reset()
        assert len(session.memo) == 0
        again = session.execute_batch(batch)
        assert again.rows == cold.rows
        assert again.materializations == cold.materializations

    def test_database_attached_after_optimizing(self, catalog, database):
        """A session optimized without a database executes once one is attached."""
        session = OptimizerSession(catalog)
        result = session.optimize(composite_batch(1))
        session.attach_database(database)
        execution = session.execute_plans(result)
        assert execution.rows == Executor(database).execute_result(result.plan)


class TestSchedulerExecution:
    def test_submit_with_execute_returns_rows(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(1)
        reference = session.execute_batch(batch)
        with BatchScheduler(session) as scheduler:
            futures = [scheduler.submit(q, execute=True) for q in batch]
            outcomes = [f.result(timeout=120) for f in futures]
        by_name = {o.query_name: o for o in outcomes}
        for query in batch:
            assert by_name[query.name].rows == reference.rows[query.name]

    def test_submit_without_execute_has_no_rows(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        with BatchScheduler(session) as scheduler:
            outcome = scheduler.submit(composite_batch(1).queries[0]).result(timeout=120)
        assert outcome.rows is None

    def test_submit_batch_execute_resolves_to_execution(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        with BatchScheduler(session) as scheduler:
            execution = scheduler.submit_batch(
                composite_batch(1), execute=True
            ).result(timeout=120)
        assert isinstance(execution, BatchExecution)
        assert execution.rows == Executor(database).execute_result(execution.result.plan)

    def test_one_execution_serves_every_query_of_a_micro_batch(self, catalog, database):
        """Row-requesting companions share one execution of their micro-batch
        (shared materializations run once)."""
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(1)
        reference = OptimizerSession(catalog, database=database).execute_batch(batch)
        with BatchScheduler(
            session, max_batch_size=len(batch.queries), max_delay=0.5
        ) as scheduler:
            futures = [scheduler.submit(q, execute=True) for q in batch]
            outcomes = [f.result(timeout=120) for f in futures]
        assert len({id(o.batch_result) for o in outcomes}) == 1
        assert session.statistics.batches_executed == 1
        assert session.statistics.materializations_computed == (
            reference.materializations
        )
        for outcome in outcomes:
            assert outcome.rows == reference.rows[outcome.query_name]

    def test_restricted_execution_runs_only_requested_queries(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        batch = composite_batch(1)
        full = session.execute_batch(batch)
        name = batch.queries[0].name
        partial = session.execute_plans(full.result, queries=[name])
        assert set(partial.rows) == {name}
        assert partial.rows[name] == full.rows[name]

    def test_execution_failure_spares_optimize_only_companions(self, catalog):
        """A failing execution must not poison futures that never asked for rows."""
        session = OptimizerSession(catalog)  # no database: execution will fail
        queries = composite_batch(2).queries
        # A large collection delay forces both submissions into one micro-batch.
        with BatchScheduler(session, max_delay=1.0, max_batch_size=8) as scheduler:
            plain = scheduler.submit(queries[0])
            executed = scheduler.submit(queries[1], execute=True)
            outcome = plain.result(timeout=120)
            assert outcome.rows is None
            assert outcome.cost > 0
            with pytest.raises(RuntimeError, match="no database attached"):
                executed.result(timeout=120)

    def test_concurrent_threads_get_correct_independent_results(self):
        """Concurrency regression test for the shared-cache locking.

        Two threads push different batches through one warm session via the
        scheduler, repeatedly and simultaneously; every thread must receive
        exactly the rows a serial reference execution produces for *its*
        batch — no cross-talk, no partial row sets, no deadlock.
        """
        catalog = star_schema_catalog(n_dimensions=4)
        database = star_schema_database(seed=9, n_dimensions=4)
        session = OptimizerSession(catalog, database=database)
        batches = [random_star_batch(3, seed=s, n_dimensions=4) for s in (21, 22)]
        references = [
            Executor(database).execute_result(session.optimize(b).plan)
            for b in batches
        ]
        errors = []
        barrier = threading.Barrier(2)

        with BatchScheduler(session, workers=2) as scheduler:

            def worker(index):
                try:
                    barrier.wait(timeout=30)
                    for _ in range(5):
                        execution = scheduler.submit_batch(
                            batches[index], execute=True
                        ).result(timeout=120)
                        if execution.rows != references[index]:
                            errors.append(f"thread {index} got wrong rows")
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=180)
                assert not t.is_alive(), "worker deadlocked"
        assert not errors, errors
