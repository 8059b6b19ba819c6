"""The adaptive feedback loop through the serving layer (tier-1).

Covers the acceptance criteria of the adaptive subsystem:

* with adaptation **disabled** (the default) nothing is observed, nothing
  is re-optimized, and warm traffic is served bit-identically;
* with adaptation **enabled**, stable traffic is still untouched (no drift
  → no corrections → bit-identical warm results), while a data change that
  contradicts the static estimates triggers exactly the expected
  re-optimizations — and only for the batches that contain the drifted
  node;
* an operator error during an instrumented run leaves the statistics store
  untouched (record-on-success only).
"""

import random

import pytest

from repro.adaptive import AdaptiveConfig, BenefitAwarePolicy, CostLRUPolicy
from repro.algebra import builder as qb
from repro.algebra.expressions import col, eq
from repro.algebra.logical import QueryBatch
from repro.dag.fingerprint import canonical_key
from repro.execution import ColumnBatch, Executor
from repro.execution.data import example1_database
from repro.obs import InMemorySink, Observability, Tracer
from repro.service import MaterializationCache, OptimizerSession
from repro.workloads.synthetic import example1_batch, example1_catalog

LARGE, SMALL = 2000, 200
#: First-pass estimates on the matched catalog/database are accurate to well
#: under this factor; the drift below overshoots it by design (×10).
THRESHOLD = 3.0


@pytest.fixture()
def catalog():
    # Catalog statistics sized to match the database exactly, so estimates
    # are honest and only a *data change* can create drift.
    return example1_catalog(large_rows=LARGE, small_rows=SMALL)


@pytest.fixture()
def database():
    return example1_database(large_rows=LARGE, small_rows=SMALL)


@pytest.fixture()
def control_batch():
    """A batch over c and d only — no plan node involves relation b."""
    query = (
        qb.scan("c")
        .join(qb.scan("d"), eq(col("c_join"), col("d_key")))
        .query("CD")
    )
    return QueryBatch("control", (query,))


def drift_b(database):
    """Make every b row join with c (the estimate says 1 in 10 does)."""
    rng = random.Random(7)
    database.replace_table(
        "b",
        [
            {"b_key": i, "b_join": rng.randrange(SMALL), "b_payload": f"b-{i}"}
            for i in range(LARGE)
        ],
    )


class TestAdaptationDisabled:
    def test_default_session_observes_and_adapts_nothing(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        assert session.feedback is None and session.adaptive_config is None
        cold = session.execute_batch(example1_batch())
        warm = session.execute_batch(example1_batch())
        assert warm.rows == cold.rows
        assert warm.materializations == 0
        assert session.statistics.observations_recorded == 0
        assert session.statistics.reoptimizations == 0

    def test_disabled_config_is_the_same_as_none(self, catalog, database):
        session = OptimizerSession(
            catalog, database=database, adaptive=AdaptiveConfig(enabled=False)
        )
        assert session.feedback is None
        session.execute_batch(example1_batch())
        assert session.statistics.observations_recorded == 0

    def test_disabled_session_never_reoptimizes_across_drift(self, catalog, database):
        session = OptimizerSession(catalog, database=database)
        cold = session.execute_batch(example1_batch())
        drift_b(database)
        after = session.execute_batch(example1_batch())
        # Data invalidation recomputes rows, but the *plan* stays cached.
        assert after.result.materialized == cold.result.materialized
        assert session.statistics.strategies_run == cold.result.oracle_calls * 0 + 1
        assert session.statistics.reoptimizations == 0
        assert session.statistics.drift_events == 0


class TestAdaptationEnabled:
    def make_session(self, catalog, database):
        return OptimizerSession(
            catalog,
            database=database,
            adaptive=AdaptiveConfig(drift_threshold=THRESHOLD),
        )

    def test_stable_traffic_records_but_never_drifts(self, catalog, database):
        session = self.make_session(catalog, database)
        cold = session.execute_batch(example1_batch())
        assert session.statistics.observations_recorded > 0
        assert len(session.feedback) > 0
        warm = session.execute_batch(example1_batch())
        assert warm.rows == cold.rows, "no drift → warm results stay bit-identical"
        assert warm.materializations == 0
        assert session.statistics.drift_events == 0
        assert session.statistics.reoptimizations == 0

    def test_drift_triggers_exactly_the_expected_reoptimizations(
        self, catalog, database, control_batch
    ):
        session = self.make_session(catalog, database)
        stale = session.execute_batch(example1_batch())
        session.execute_batch(control_batch)
        assert session.statistics.drift_events == 0

        drift_b(database)
        # The stale plan runs once on the new data; its observations reveal
        # the b⋈c explosion and invalidate the example1 result — and only it.
        session.execute_batch(example1_batch())
        assert session.statistics.drift_events >= 1
        assert session.statistics.results_invalidated == 1

        strategies_before = session.statistics.strategies_run
        reoptimized = session.execute_batch(example1_batch())
        assert session.statistics.reoptimizations == 1
        assert session.statistics.strategies_run == strategies_before + 1
        # The corrected statistics change the plan: materializing the
        # now-huge b⋈c no longer pays off.
        assert reoptimized.result.materialized != stale.result.materialized

        # No-drift traffic is untouched: the control result is still served
        # from the cache, with no further re-optimization.
        strategies_before = session.statistics.strategies_run
        session.execute_batch(control_batch)
        assert session.statistics.strategies_run == strategies_before
        assert session.statistics.reoptimizations == 1

        # The payoff, both plans costed under the corrected statistics: the
        # stale selection re-costed by the current engine loses to the
        # re-optimized plan.
        engine = session.prepare(example1_batch()).engine
        stale_cost = engine.evaluate(frozenset(stale.result.materialized)).total_cost
        assert reoptimized.result.total_cost < stale_cost

    def test_drift_corrects_the_row_width_from_observed_bytes(self, catalog, database):
        sink = InMemorySink()
        session = OptimizerSession(
            catalog,
            database=database,
            adaptive=AdaptiveConfig(drift_threshold=THRESHOLD),
            obs=Observability(tracer=Tracer(sink)),
        )
        session.execute_batch(example1_batch())
        drift_b(database)
        session.execute_batch(example1_batch())
        drifted = [
            event["attrs"]["group"]
            for record in sink.records
            for event in record.get("events", ())
            if event["name"] == "adaptive.drift"
        ]
        assert drifted
        for gid in drifted:
            observed = session.feedback.get(canonical_key(session.memo.signature_of(gid)))
            assert observed.row_width is not None
            assert session.memo.get(gid).row_width == max(observed.row_width, 1.0)

    def test_reoptimized_rows_match_a_fresh_executor(self, catalog, database):
        session = self.make_session(catalog, database)
        session.execute_batch(example1_batch())
        drift_b(database)
        session.execute_batch(example1_batch())
        reoptimized = session.execute_batch(example1_batch())
        plain = Executor(database).execute_result(reoptimized.result.plan)
        assert reoptimized.rows == plain

    def test_post_drift_warm_traffic_is_stable_again(self, catalog, database):
        """After the one-off correction the session settles: no repeated
        drift events, warm results bit-identical again."""
        session = self.make_session(catalog, database)
        session.execute_batch(example1_batch())
        drift_b(database)
        session.execute_batch(example1_batch())
        first = session.execute_batch(example1_batch())
        events = session.statistics.drift_events
        again = session.execute_batch(example1_batch())
        assert again.rows == first.rows
        assert again.materializations == 0
        assert session.statistics.drift_events == events
        assert session.statistics.reoptimizations == 1

    def test_adaptive_true_uses_default_config(self, catalog, database):
        session = OptimizerSession(catalog, database=database, adaptive=True)
        assert session.adaptive_config == AdaptiveConfig()
        assert session.feedback is not None

    def test_benefit_policy_is_wired_by_default(self, catalog):
        session = OptimizerSession(catalog, adaptive=True)
        assert isinstance(session.matcache.policy, BenefitAwarePolicy)
        assert session.matcache.policy.store is session.feedback

    def test_explicit_matcache_wins_over_benefit_policy(self, catalog):
        cache = MaterializationCache()
        session = OptimizerSession(catalog, adaptive=True, matcache=cache)
        assert session.matcache is cache
        assert isinstance(cache.policy, CostLRUPolicy)

    def test_feedback_survives_reset(self, catalog, database):
        session = self.make_session(catalog, database)
        session.execute_batch(example1_batch())
        observed = len(session.feedback)
        assert observed > 0
        session.reset()
        assert len(session.feedback) == observed, (
            "fingerprint-keyed observations outlive the memo"
        )


class TestRecordOnSuccessOnly:
    """Regression: a failing query inside an instrumented batch must not
    corrupt the statistics store with partial measurements."""

    def make_broken_database(self):
        database = example1_database(large_rows=LARGE, small_rows=SMALL)
        c_rows = database.tables.pop("c")  # plans over c now fail at runtime
        return database, c_rows

    def mixed_batch(self):
        good = qb.scan("a").query("GOOD")
        bad = (
            qb.scan("b")
            .join(qb.scan("c"), eq(col("b_join"), col("c_key")))
            .query("BAD")
        )
        return QueryBatch("mixed", (good, bad))

    def test_operator_error_leaves_the_stats_store_untouched(self, catalog):
        database, _ = self.make_broken_database()
        session = OptimizerSession(
            catalog,
            database=database,
            adaptive=AdaptiveConfig(drift_threshold=THRESHOLD),
        )
        with pytest.raises(KeyError, match="unknown table 'c'"):
            session.execute_batch(self.mixed_batch())
        assert len(session.feedback) == 0, (
            "the successful GOOD query ran before the failure, but its "
            "buffered observation must be discarded with the batch"
        )
        assert session.statistics.observations_recorded == 0
        assert session.statistics.drift_events == 0

    def test_repaired_batch_records_normally(self, catalog):
        database, c_rows = self.make_broken_database()
        session = OptimizerSession(
            catalog,
            database=database,
            adaptive=AdaptiveConfig(drift_threshold=THRESHOLD),
        )
        with pytest.raises(KeyError):
            session.execute_batch(self.mixed_batch())
        database.add_table("c", c_rows)
        execution = session.execute_batch(self.mixed_batch())
        assert set(execution.rows) == {"GOOD", "BAD"}
        assert session.statistics.observations_recorded > 0
        assert len(session.feedback) > 0


class TestObservationHygiene:
    def test_warm_cache_reads_do_not_erode_measured_recompute_time(
        self, catalog, database
    ):
        """A materialized query root is re-read (READ_MATERIALIZED) by its
        query plans; those near-zero cache-read timings must not average
        into the fingerprint's measured recomputation time."""
        shared = (
            qb.scan("a")
            .join(qb.scan("b"), eq(col("a_join"), col("b_key")))
            .join(qb.scan("c"), eq(col("b_join"), col("c_key")))
        )
        batch = QueryBatch("twins", (shared.query("Q1"), shared.query("Q2")))
        session = OptimizerSession(
            catalog,
            database=database,
            adaptive=AdaptiveConfig(drift_threshold=1000.0),  # isolate timing
        )
        cold = session.execute_batch(batch)
        from repro.optimizer.plan import PhysicalOp

        root_plan = cold.result.plan.query_plans["Q1"]
        assert root_plan.op is PhysicalOp.READ_MATERIALIZED, (
            "the twin queries' shared root should be materialized and re-read"
        )
        key = canonical_key(session.memo.signature_of(root_plan.group))
        after_cold = session.feedback.get(key)
        assert after_cold.elapsed > 0.0, "the materialization itself was timed"

        warm = session.execute_batch(batch)
        assert warm.materializations == 0
        after_warm = session.feedback.get(key)
        assert after_warm.observations > after_cold.observations
        assert after_warm.elapsed == after_cold.elapsed, (
            "cache-read observations must leave the elapsed EWMA untouched"
        )

    def test_observations_from_a_stale_data_version_are_discarded(
        self, catalog, database
    ):
        """Mirror of the matcache's stale-fill rejection: measurements taken
        against data that changed mid-execution must not be absorbed (and
        must not rebind the store to the old token)."""
        session = OptimizerSession(
            catalog,
            database=database,
            adaptive=AdaptiveConfig(drift_threshold=3.0),
        )
        result = session.optimize(example1_batch())
        # Simulate the race: the data changes after optimization chose the
        # token but before execution's observations are absorbed.
        original_execute = Executor.execute_result

        def racing_execute(self, *args, **kwargs):
            rows = original_execute(self, *args, **kwargs)
            # The data moves on while rows are in flight.  The mutation must
            # be real: the token is the database's *content* fingerprint, so
            # a bare touch() that changes nothing (correctly) changes no
            # token either.
            database.table("a")[0]["a_payload"] = "mutated-mid-flight"
            database.touch()
            return rows

        try:
            Executor.execute_result = racing_execute
            session.execute_plans(result)
        finally:
            Executor.execute_result = original_execute
        assert session.statistics.observations_recorded == 0
        assert len(session.feedback) == 0
        assert session.statistics.drift_events == 0


class TestExecutorObserverContract:
    def test_observer_sees_every_executed_plan_but_not_cache_hits(
        self, catalog, database
    ):
        session = OptimizerSession(catalog, database=database)
        result = session.optimize(example1_batch())
        executor = Executor(database)

        seen = []
        rows = executor.execute_result(
            result.plan, observer=lambda plan, out, took: seen.append((plan, out, took))
        )
        expected = len(result.plan.materialization_plans) + len(result.plan.query_plans)
        assert len(seen) == expected
        assert all(took >= 0.0 for _, _, took in seen)

        # Pre-supplied materializations are not executed, hence not observed.
        store = {
            gid: ColumnBatch.from_rows(executor.execute(plan))
            for gid, plan in result.plan.materialization_plans.items()
        }
        seen.clear()
        executor.execute_result(
            result.plan,
            materialized=store,
            observer=lambda plan, out, took: seen.append(plan),
        )
        assert len(seen) == len(result.plan.query_plans)
        assert rows == executor.execute_result(result.plan)


class TestFeedbackOwnership:
    def test_each_adaptive_session_owns_its_feedback_store(self, catalog, database):
        first = OptimizerSession(catalog, database=database, adaptive=True)
        second = OptimizerSession(catalog, database=database, adaptive=True)
        assert first.feedback is not None and second.feedback is not None
        assert first.feedback is not second.feedback
        first.execute_batch(example1_batch())
        assert first.statistics.observations_recorded > 0
        assert len(first.feedback) > 0
        assert len(second.feedback) == 0

    def test_attach_database_binds_cache_and_feedback_to_one_token(
        self, catalog, database
    ):
        session = OptimizerSession(catalog, adaptive=True)
        session.attach_database(database)
        assert session.database is database
        assert session.feedback.token == session.matcache.token
        assert session.matcache.token == database.fingerprint()
