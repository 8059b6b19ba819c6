"""Executor tests: shared plans must return exactly the same rows as unshared ones."""

import pytest

from repro.algebra import builder as qb
from repro.algebra.expressions import col, eq, ge, lt
from repro.algebra.logical import QueryBatch
from repro.catalog.tpcd import tpcd_catalog
from repro.dag.sharing import build_batch_dag
from repro.execution import (
    ColumnBatch,
    ExecutionError,
    Executor,
    example1_database,
    resolve_backend,
    tiny_tpcd_database,
)
from repro.execution.evaluate import ColumnNotFound, evaluate_predicate, resolve_column
from repro.optimizer.best_cost import BestCostEngine
from repro.optimizer.plan import PhysicalOp, PhysicalPlan
from repro.service import OptimizerSession
from repro.service.matcache import estimate_rows_bytes
from repro.workloads.synthetic import example1_batch, example1_catalog
from repro.workloads.tpcd_queries import q11, q15


def canonical(rows):
    """Order-independent canonical form of a list of result rows."""
    return sorted(tuple(sorted((k, round(v, 6) if isinstance(v, float) else v) for k, v in row.items())) for row in rows)


class TestEvaluate:
    def test_resolve_exact_and_suffix(self):
        row = {"orders.o_orderkey": 1, "revenue_total": 5}
        assert resolve_column(row, col("orders.o_orderkey")) == 1
        assert resolve_column(row, col("o_orderkey")) == 1
        with pytest.raises(ColumnNotFound):
            resolve_column(row, col("missing"))

    def test_ambiguous_reference(self):
        row = {"n1.n_name": "FRANCE", "n2.n_name": "GERMANY"}
        assert resolve_column(row, col("n1.n_name")) == "FRANCE"
        with pytest.raises(ColumnNotFound):
            resolve_column(row, col("n_name"))

    def test_predicates(self):
        row = {"t.a": 5, "t.b": "x"}
        assert evaluate_predicate(row, eq(col("t.a"), 5))
        assert not evaluate_predicate(row, lt(col("t.a"), 5))
        assert evaluate_predicate(row, eq(col("t.a"), 5) & eq(col("t.b"), "x"))
        assert evaluate_predicate(row, None)


class TestDataGenerators:
    def test_tiny_tpcd_referential_integrity(self):
        db = tiny_tpcd_database(seed=1)
        order_keys = {r["o_orderkey"] for r in db.table("orders")}
        for line in db.table("lineitem"):
            assert line["l_orderkey"] in order_keys
        supplier_keys = {r["s_suppkey"] for r in db.table("supplier")}
        for ps in db.table("partsupp"):
            assert ps["ps_suppkey"] in supplier_keys

    def test_deterministic(self):
        assert tiny_tpcd_database(seed=3).table("orders") == tiny_tpcd_database(seed=3).table("orders")

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            tiny_tpcd_database().table("nope")


class TestSharedPlansReturnSameRows:
    def test_example1(self):
        catalog = example1_catalog()
        batch = example1_batch()
        results = OptimizerSession(catalog).compare(batch, strategies=("volcano", "greedy"))
        executor = Executor(example1_database())
        plain = executor.execute_result(results["volcano"].plan)
        shared = executor.execute_result(results["greedy"].plan)
        assert results["greedy"].materialized_count >= 1
        for name in plain:
            assert canonical(plain[name]) == canonical(shared[name])
            assert plain[name], f"query {name} should return rows on the tiny database"

    def test_repeated_tpcd_style_queries(self):
        catalog = tpcd_catalog(0.001)
        db = tiny_tpcd_database(seed=7, orders=200)

        def make(name, cutoff):
            return (
                qb.scan("orders")
                .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
                .filter(lt(col("o_orderdate"), cutoff))
                .aggregate(["o_orderdate"], [("sum", "l_extendedprice", "revenue")])
                .query(name)
            )

        batch = QueryBatch("pair", (make("A", 19960101), make("B", 19970101)))
        results = OptimizerSession(catalog).compare(batch, strategies=("volcano", "share-all"))
        executor = Executor(db)
        plain = executor.execute_result(results["volcano"].plan)
        shared = executor.execute_result(results["share-all"].plan)
        for name in plain:
            assert canonical(plain[name]) == canonical(shared[name])

    @pytest.mark.parametrize("workload_factory", [q11, q15], ids=["Q11", "Q15"])
    def test_intra_query_sharing_workloads(self, workload_factory):
        catalog = tpcd_catalog(0.001)
        db = tiny_tpcd_database(seed=11, orders=150)
        batch = workload_factory()
        results = OptimizerSession(catalog).compare(batch, strategies=("volcano", "share-all"))
        executor = Executor(db)
        plain = executor.execute_result(results["volcano"].plan)
        shared = executor.execute_result(results["share-all"].plan)
        for name in plain:
            assert canonical(plain[name]) == canonical(shared[name])

    def test_hash_join_unknown_alias_raises_execution_error(self):
        """Unresolvable join columns are an ExecutionError, not a KeyError."""
        db = example1_database()

        def scan(table):
            return PhysicalPlan(
                op=PhysicalOp.TABLE_SCAN, group=0, cost=1.0, local_cost=1.0,
                rows=1.0, width=1.0, table=table, alias=table,
            )

        join = PhysicalPlan(
            op=PhysicalOp.MERGE_JOIN, group=1, cost=3.0, local_cost=1.0,
            rows=1.0, width=1.0, children=(scan("a"), scan("b")),
            predicate=eq(col("zz.nope"), col("ww.nah")),
        )
        with pytest.raises(ExecutionError, match="unknown alias"):
            Executor(db).execute(join)

    def test_hash_join_one_sided_unknown_alias(self):
        """One resolvable side is not enough: the probe side must raise too."""
        db = example1_database()

        def scan(table):
            return PhysicalPlan(
                op=PhysicalOp.TABLE_SCAN, group=0, cost=1.0, local_cost=1.0,
                rows=1.0, width=1.0, table=table, alias=table,
            )

        join = PhysicalPlan(
            op=PhysicalOp.MERGE_JOIN, group=1, cost=3.0, local_cost=1.0,
            rows=1.0, width=1.0, children=(scan("a"), scan("b")),
            predicate=eq(col("a.a_join"), col("ww.nah")),
        )
        with pytest.raises(ExecutionError, match="cannot resolve"):
            Executor(db).execute(join)

    def test_hash_join_mixed_orientation_conjuncts(self):
        """Equi conjuncts written in opposite orientations still hash-join."""
        db = example1_database()

        def scan(table):
            return PhysicalPlan(
                op=PhysicalOp.TABLE_SCAN, group=0, cost=1.0, local_cost=1.0,
                rows=1.0, width=1.0, table=table, alias=table,
            )

        joins = {}
        for name, predicate in (
            ("fwd", eq(col("a.a_join"), col("b.b_key")) & eq(col("a.a_key"), col("b.b_join"))),
            ("mixed", eq(col("a.a_join"), col("b.b_key")) & eq(col("b.b_join"), col("a.a_key"))),
        ):
            plan = PhysicalPlan(
                op=PhysicalOp.MERGE_JOIN, group=1, cost=3.0, local_cost=1.0,
                rows=1.0, width=1.0, children=(scan("a"), scan("b")),
                predicate=predicate,
            )
            joins[name] = Executor(db).execute(plan)
        expected = [
            {**{f"a.{k}": v for k, v in ra.items()}, **{f"b.{k}": v for k, v in rb.items()}}
            for ra in db.table("a")
            for rb in db.table("b")
            if ra["a_join"] == rb["b_key"] and ra["a_key"] == rb["b_join"]
        ]
        assert canonical(joins["fwd"]) == canonical(joins["mixed"]) == canonical(expected)

    def test_execute_result_consumes_seeds_and_publishes_fills(self):
        """Pre-seeded materializations are not recomputed; fills are reported."""
        catalog = example1_catalog()
        batch = example1_batch()
        result = OptimizerSession(catalog).optimize(batch, strategy="greedy").plan
        assert result.materialization_plans, "greedy should materialize on example 1"
        executor = Executor(example1_database())

        fills = {}
        rows = executor.execute_result(
            result, fill_listener=lambda gid, plan, r: fills.update({gid: r})
        )
        assert set(fills) == set(result.materialization_plans)

        # Seeding every materialization suppresses recomputation entirely...
        refills = []
        seeded_rows = executor.execute_result(
            result,
            materialized=fills,
            fill_listener=lambda gid, plan, r: refills.append(gid),
        )
        assert refills == []
        assert seeded_rows == rows

        # ...and a poisoned (emptied) seed visibly flows into the results,
        # proving the seed — not a recomputation — was read.
        poisoned = {gid: ColumnBatch.from_rows([]) for gid in fills}
        empty_rows = executor.execute_result(result, materialized=poisoned)
        for name, plan in result.query_plans.items():
            if plan.uses_materialized() and rows[name]:
                assert empty_rows[name] != rows[name]

        # The queries filter restricts row production without touching the
        # other queries' plans.
        some = next(iter(result.query_plans))
        only = executor.execute_result(result, materialized=fills, queries=[some])
        assert set(only) == {some}
        assert only[some] == rows[some]

    def test_execute_single_plan(self):
        catalog = tpcd_catalog(0.001)
        db = tiny_tpcd_database(seed=5)
        query = (
            qb.scan("orders")
            .filter(ge(col("o_orderdate"), 19920101))
            .aggregate([], [("count", None, "n"), ("max", "o_totalprice", "max_price")])
            .query("counts")
        )
        engine = BestCostEngine(build_batch_dag(QueryBatch("single", (query,)), catalog))
        plan = engine.evaluate(frozenset()).query_plans["counts"]
        rows = Executor(db).execute(plan)
        assert len(rows) == 1
        assert rows[0]["n"] == len(db.table("orders"))
        assert rows[0]["max_price"] == max(r["o_totalprice"] for r in db.table("orders"))


class TestStoredForm:
    """Every backend stores materializations as ``ColumnBatch`` values: the
    form ``fill_listener`` and the cache receive, whatever computed them."""

    @pytest.fixture(scope="class")
    def greedy_plan(self):
        result = OptimizerSession(example1_catalog()).optimize(example1_batch(), strategy="greedy")
        assert result.plan.materialization_plans, "greedy should materialize on example 1"
        return result.plan

    @pytest.mark.parametrize("backend", ["row", "columnar", "sqlite"])
    def test_fills_and_observed_materializations_are_batches(self, greedy_plan, backend):
        executor = resolve_backend(backend)(example1_database())
        fills, observed = {}, []
        rows = executor.execute_result(
            greedy_plan,
            fill_listener=lambda gid, plan, batch: fills.update({gid: batch}),
            observer=lambda plan, out, took: observed.append((plan, out)),
        )
        assert set(fills) == set(greedy_plan.materialization_plans)
        assert all(isinstance(batch, ColumnBatch) for batch in fills.values())
        materialized_by = {id(plan): gid for gid, plan in greedy_plan.materialization_plans.items()}
        for plan, out in observed:
            if id(plan) in materialized_by:
                assert out is fills[materialized_by[id(plan)]]
            else:
                assert isinstance(out, list)
        assert len(observed) == len(fills) + len(greedy_plan.query_plans)
        # Read back as seeds, the batches give the same answers.
        assert executor.execute_result(greedy_plan, materialized=fills) == rows

    @pytest.mark.parametrize("backend", ["row", "columnar", "sqlite"])
    def test_session_cache_entries_hold_one_batch(self, backend):
        session = OptimizerSession(
            example1_catalog(), database=example1_database(), executor=backend
        )
        cold = session.execute_batch(example1_batch(), strategy="greedy")
        warm = session.execute_batch(example1_batch(), strategy="greedy")
        assert cold.materializations > 0 and warm.materializations == 0
        assert warm.rows == cold.rows
        entries = session.matcache._entries  # white-box: the one stored form
        assert entries and all(isinstance(e.batch, ColumnBatch) for e in entries.values())
        assert session.matcache.current_bytes == sum(
            estimate_rows_bytes(e.batch.to_rows()) for e in entries.values()
        )
