"""Session-reuse guarantees: warm results must be bit-identical to cold ones."""

import pytest

from repro.catalog.tpcd import tpcd_catalog
from repro.core.mqo import run_strategy
from repro.dag.sharing import build_batch_dag
from repro.optimizer.best_cost import BestCostEngine
from repro.service import OptimizerSession
from repro.workloads.batches import composite_batch

STRATEGIES = ("volcano", "greedy", "marginal-greedy", "share-all")


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(0.05)


def _one_shot(catalog, batch, strategy):
    """The batch optimized without a session: a fresh DAG and engine."""
    dag = build_batch_dag(batch, catalog)
    result = run_strategy(dag, BestCostEngine(dag), batch_name=batch.name, strategy=strategy)
    return result, dag


def _signatures(result, dag):
    """Materialization choices as session-independent (fingerprint, order) pairs."""
    return {
        (dag.memo.get(getattr(e, "group", e)).signature, str(getattr(e, "order", "")))
        for e in result.materialized
    }


class TestSameBatchTwice:
    def test_bit_identical_and_served_from_cache(self, catalog):
        session = OptimizerSession(catalog)
        batch = composite_batch(1)
        first = {s: session.optimize(batch, strategy=s) for s in STRATEGIES}
        hits_before = session.statistics.result_cache_hits
        version_before = session.memo.version
        second = {s: session.optimize(batch, strategy=s) for s in STRATEGIES}
        for s in STRATEGIES:
            assert second[s].total_cost == first[s].total_cost
            assert second[s].volcano_cost == first[s].volcano_cost
            assert second[s].materialized == first[s].materialized
            assert second[s].query_costs == first[s].query_costs
        # The second pass is the incremental path: no memo growth, all hits.
        assert session.memo.version == version_before
        assert session.statistics.result_cache_hits == hits_before + len(STRATEGIES)
        assert session.statistics.queries_reused >= len(batch)

    def test_matches_fresh_optimizer(self, catalog):
        session = OptimizerSession(catalog)
        batch = composite_batch(1)
        session.optimize(batch, strategy="greedy")  # warm
        warm = session.optimize(batch, strategy="greedy")
        fresh, fresh_dag = _one_shot(catalog, batch, "greedy")
        assert warm.total_cost == fresh.total_cost
        assert warm.volcano_cost == fresh.volcano_cost
        warm_dag = session.prepare(batch).dag
        assert _signatures(warm, warm_dag) == _signatures(fresh, fresh_dag)


class TestOverlappingBatches:
    def test_overlapping_batch_hits_incremental_path(self, catalog):
        session = OptimizerSession(catalog)
        session.optimize(composite_batch(1), strategy="greedy")
        interned_before = session.statistics.queries_interned
        reused_before = session.statistics.queries_reused
        # BQ2 = BQ1's queries plus the Q5 pair: only the new pair may expand
        # the memo; the shared pair must be recognized by fingerprint.
        session.optimize(composite_batch(2), strategy="greedy")
        assert session.statistics.queries_reused == reused_before + 2
        assert session.statistics.queries_interned == interned_before + 2

    def test_overlapping_batch_identical_to_fresh(self, catalog):
        session = OptimizerSession(catalog)
        session.optimize(composite_batch(1), strategy="greedy")
        batch = composite_batch(2)
        for strategy in STRATEGIES:
            warm = session.optimize(batch, strategy=strategy)
            fresh, fresh_dag = _one_shot(catalog, batch, strategy)
            assert warm.total_cost == fresh.total_cost, strategy
            assert warm.volcano_cost == fresh.volcano_cost, strategy
            assert warm.query_costs == fresh.query_costs, strategy
            warm_dag = session.prepare(batch).dag
            assert _signatures(warm, warm_dag) == _signatures(fresh, fresh_dag), strategy

    def test_earlier_batch_unchanged_after_memo_growth(self, catalog):
        """Serving new traffic must not change answers for old traffic."""
        session = OptimizerSession(catalog)
        batch = composite_batch(1)
        before = session.optimize(batch, strategy="greedy")
        session.optimize(composite_batch(2), strategy="greedy")  # grows the memo
        session._results.clear()  # force a true re-run, not a cache hit
        after = session.optimize(batch, strategy="greedy")
        assert after.total_cost == before.total_cost
        assert after.materialized == before.materialized
        assert after.query_costs == before.query_costs


class TestSessionHousekeeping:
    def test_reset_drops_memo(self, catalog):
        session = OptimizerSession(catalog)
        session.optimize(composite_batch(1), strategy="volcano")
        assert session.memo.version > 0
        session.reset()
        assert session.memo.version == 0
        result = session.optimize(composite_batch(1), strategy="volcano")
        assert result.total_cost > 0

    def test_lru_bound_on_prepared_batches(self, catalog):
        session = OptimizerSession(catalog, max_cached_batches=1)
        session.optimize(composite_batch(1), strategy="volcano")
        session.optimize(composite_batch(2), strategy="volcano")
        assert len(session._batches) == 1

    def test_statistics_count_batches_and_strategies(self, catalog):
        session = OptimizerSession(catalog)
        for index in (1, 2, 3):
            session.optimize(composite_batch(index), strategy="greedy")
        assert session.statistics.batches_served == 3
        assert session.statistics.strategies_run == 3
        assert session.statistics_snapshot()["batches_served"] == 3

    def test_compare_agrees_with_optimize(self, catalog):
        session = OptimizerSession(catalog)
        batch = composite_batch(2)
        compared = session.compare(batch, strategies=("volcano", "greedy"))
        fresh = OptimizerSession(catalog)
        for name in ("volcano", "greedy"):
            reference = fresh.optimize(batch, strategy=name)
            assert compared[name].total_cost == reference.total_cost
            assert compared[name].query_costs == reference.query_costs

    def test_oracle_work_is_published_in_the_registry(self, catalog):
        session = OptimizerSession(catalog)
        batch = composite_batch(1)
        result = session.optimize(batch)

        def published():
            counters = session.obs.registry.snapshot()["counters"]
            return {k: v for k, v in counters.items() if k.startswith("optimizer_")}

        first = published()
        assert first["optimizer_evaluations"] == result.oracle_calls
        assert first["optimizer_full_evaluations"] == 1
        assert first["optimizer_dp_entries_reused"] > first["optimizer_dp_entries_recomputed"] > 0
        session.optimize(batch)  # a result-cache hit asks the oracle nothing
        assert published() == first
        session.compare(batch, ("greedy",))  # a fresh engine's whole work
        assert published()["optimizer_full_evaluations"] == 2
        assert "optimizer_dp_entries_reused" in session.obs.registry.render_prometheus()

    def test_accepts_plain_query_sequences(self, catalog):
        from repro.workloads.tpcd_queries import batched_queries

        session = OptimizerSession(catalog)
        result = session.optimize(list(batched_queries(1)), strategy="volcano")
        assert result.total_cost > 0
