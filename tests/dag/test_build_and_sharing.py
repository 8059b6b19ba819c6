"""Tests for DAG expansion, subsumption and the sharing analysis."""

import pytest

from repro.algebra import builder as qb
from repro.algebra.expressions import col, eq, ge, lt
from repro.algebra.logical import QueryBatch
from repro.catalog.tpcd import tpcd_catalog
from repro.dag.build import DagBuilder, DagConfig
from repro.dag.fingerprint import RelationSignature, SPJSignature
from repro.dag.memo import JoinMExpr, SelectMExpr, mexpr_children
from repro.dag.sharing import MaterializationChoice, build_batch_dag


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(0.1)


def two_way(name, cutoff):
    return (
        qb.scan("orders")
        .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
        .filter(lt(col("o_orderdate"), cutoff))
        .query(name)
    )


def three_way(name, cutoff):
    return (
        qb.scan("customer")
        .join(qb.scan("orders"), eq(col("c_custkey"), col("o_custkey")))
        .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
        .filter(lt(col("o_orderdate"), cutoff))
        .query(name)
    )


class TestExpansion:
    def test_all_connected_subsets_created(self, catalog):
        builder = DagBuilder(catalog)
        builder.add_query(three_way("Q", 19950101))
        spj_groups = [g for g in builder.memo if isinstance(g.signature, SPJSignature)]
        source_sets = {frozenset(a for a, _ in g.signature.sources) for g in spj_groups}
        # customer–orders–lineitem is a chain, so {customer, lineitem} is not connected.
        assert frozenset({"customer", "orders"}) in source_sets
        assert frozenset({"lineitem", "orders"}) in source_sets
        assert frozenset({"customer", "lineitem", "orders"}) in source_sets
        assert frozenset({"customer", "lineitem"}) not in source_sets

    def test_join_groups_have_multiple_alternatives(self, catalog):
        builder = DagBuilder(catalog)
        root = builder.add_query(three_way("Q", 19950101))
        root_group = builder.memo.get(root)
        joins = [m for m in root_group.mexprs if isinstance(m, JoinMExpr)]
        assert len(joins) >= 2  # both join orders of the chain

    def test_cardinalities_are_positive_and_monotone(self, catalog):
        builder = DagBuilder(catalog)
        builder.add_query(three_way("Q", 19950101))
        for group in builder.memo:
            assert group.rows >= 1
            assert group.row_width >= 1

    def test_rejects_too_many_sources(self, catalog):
        config = DagConfig(max_block_sources=2)
        builder = DagBuilder(catalog, config)
        with pytest.raises(ValueError):
            builder.add_query(three_way("Q", 19950101))

    def test_duplicate_query_names_rejected(self, catalog):
        builder = DagBuilder(catalog)
        builder.add_query(two_way("Q", 19950101))
        with pytest.raises(ValueError):
            builder.add_query(two_way("Q", 19960101))


class TestSubsumption:
    def test_relaxed_groups_created_for_different_constants(self, catalog):
        batch = QueryBatch("b", (two_way("A", 19940101), two_way("B", 19960101)))
        dag = build_batch_dag(batch, catalog)
        descriptions = [g.signature.describe() for g in dag.memo]
        assert any("OR" in d for d in descriptions), "expected a relaxed OR-predicate group"

    def test_subsumption_can_be_disabled(self, catalog):
        batch = QueryBatch("b", (two_way("A", 19940101), two_way("B", 19960101)))
        with_sub = build_batch_dag(batch, catalog, DagConfig(enable_subsumption=True))
        without = build_batch_dag(batch, catalog, DagConfig(enable_subsumption=False))
        assert with_sub.memo.mexpr_count() > without.memo.mexpr_count()

    def test_subset_predicates_derive_directly(self, catalog):
        unfiltered = (
            qb.scan("orders")
            .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
            .query("plain")
        )
        batch = QueryBatch("b", (two_way("A", 19940101), unfiltered))
        dag = build_batch_dag(batch, catalog)
        filtered_root = dag.memo.get(dag.query_roots["A"])
        plain_root_id = dag.query_roots["plain"]
        assert any(
            isinstance(m, SelectMExpr) and m.child == plain_root_id
            for m in filtered_root.mexprs
        ), "the stricter query should gain a σ-derivation over the unfiltered one"


class TestSharing:
    def test_identical_queries_share_root(self, catalog):
        batch = QueryBatch("b", (two_way("A", 19950101), two_way("B", 19950101)))
        dag = build_batch_dag(batch, catalog)
        assert dag.query_roots["A"] == dag.query_roots["B"]
        assert dag.query_roots["A"] in dag.shareable_nodes()

    def test_base_relations_never_shareable(self, catalog):
        batch = QueryBatch("b", (two_way("A", 19950101), two_way("B", 19950101)))
        dag = build_batch_dag(batch, catalog)
        for gid in dag.shareable_nodes():
            assert not isinstance(dag.memo.get(gid).signature, RelationSignature)

    def test_single_query_without_derived_blocks_has_no_shareable_nodes(self, catalog):
        batch = QueryBatch("b", (three_way("A", 19950101),))
        dag = build_batch_dag(batch, catalog)
        assert dag.shareable_nodes() == ()

    def test_rank_orders_inputs_before_consumers(self, catalog):
        batch = QueryBatch("b", (three_way("A", 19950101), three_way("B", 19960101)))
        dag = build_batch_dag(batch, catalog)
        for gid in dag.scoped_groups():
            inputs = [c for m in dag.iter_mexprs(gid) for c in mexpr_children(m)]
            assert all(dag.rank(child) < dag.rank(gid) for child in inputs)
            assert inputs or dag.rank(gid) == 0
        # Every shareable node is below at least one query root.
        top = max(dag.rank(root) for root in dag.roots)
        assert all(dag.rank(gid) <= top for gid in dag.shareable_nodes())

    def test_interesting_and_preferred_orders(self, catalog):
        batch = QueryBatch("b", (three_way("A", 19950101), three_way("B", 19960101)))
        dag = build_batch_dag(batch, catalog)
        interesting = dag.interesting_orders()
        preferred = dag.preferred_orders()
        assert set(interesting) == {g.id for g in dag.memo}
        assert set(preferred) == {g.id for g in dag.memo}
        # At least one group has a requested order (the join keys).
        assert any(orders for orders in interesting.values())

    def test_shareable_candidates_include_sorted_variants(self, catalog):
        batch = QueryBatch("b", (three_way("A", 19950101), three_way("B", 19960101)))
        dag = build_batch_dag(batch, catalog)
        candidates = dag.shareable_candidates()
        groups = {c.group for c in candidates}
        assert groups == set(dag.shareable_nodes())
        assert any(c.order for c in candidates)
        assert any(not c.order for c in candidates)

    def test_describe_candidate(self, catalog):
        batch = QueryBatch("b", (two_way("A", 19950101), two_way("B", 19950101)))
        dag = build_batch_dag(batch, catalog)
        gid = dag.shareable_nodes()[0]
        assert dag.describe_candidate(gid).startswith(f"G{gid}")
        sorted_candidate = next(
            (c for c in dag.shareable_candidates() if c.order), None
        )
        if sorted_candidate is not None:
            assert "sorted by" in dag.describe_candidate(sorted_candidate)

    def test_summary_keys(self, catalog):
        batch = QueryBatch("b", (two_way("A", 19950101),))
        dag = build_batch_dag(batch, catalog)
        summary = dag.summary()
        for key in ("groups", "mexprs", "queries", "blocks", "shareable"):
            assert key in summary
