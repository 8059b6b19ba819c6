"""Incremental memo growth: interning, versioning and derivation scoping."""

import pytest

from repro.catalog.tpcd import tpcd_catalog
from repro.dag.build import DagBuilder
from repro.dag.sharing import BatchDag
from repro.workloads.tpcd_queries import batched_queries


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(0.05)


class TestInternQuery:
    def test_reinterning_is_idempotent(self, catalog):
        builder = DagBuilder(catalog)
        query = batched_queries(1)[0]
        root1, blocks1 = builder.intern_query(query)
        version = builder.memo.version
        root2, blocks2 = builder.intern_query(query)
        assert root1 == root2
        assert blocks1 == blocks2
        assert builder.memo.version == version  # nothing new was added

    def test_overlapping_queries_unify_by_fingerprint(self, catalog):
        q3a, q3b = batched_queries(1)
        together = DagBuilder(catalog)
        root_a, _ = together.intern_query(q3a)
        root_b, _ = together.intern_query(q3b)
        assert root_a != root_b  # different selection constants
        alone = DagBuilder(catalog)
        alone_root, _ = alone.intern_query(q3a)
        # The shared sub-structure means interning both adds fewer groups
        # than two independent builds would contain.
        assert len(together.memo) < 2 * len(alone.memo)

    def test_version_tracks_all_mutations(self, catalog):
        builder = DagBuilder(catalog)
        assert builder.memo.version == 0
        q3a, q3b = batched_queries(1)
        root_a, _ = builder.intern_query(q3a)
        root_b, _ = builder.intern_query(q3b)
        grown = builder.memo.version
        assert grown > 0
        outcome = builder.finalize(builder.memo.reachable_from((root_a, root_b)))
        assert outcome.derivations_added > 0
        assert builder.memo.version > grown


class TestDerivationScoping:
    def _dag_for(self, builder, queries):
        roots = {}
        blocks = []
        for query in queries:
            root, query_blocks = builder.intern_query(query)
            roots[query.name] = root
            blocks.extend(query_blocks)
        return BatchDag(
            memo=builder.memo,
            catalog=builder.catalog,
            query_roots=roots,
            block_roots=tuple(blocks),
            config=builder.config,
        )

    def test_cross_batch_derivations_inactive_for_single_batch(self, catalog):
        q3a, q3b = batched_queries(1)
        builder = DagBuilder(catalog)
        # Serve q3a alone, then q3b alone: each pass relates only its own
        # batch's groups, so nothing connects the two queries yet.
        dag_a = self._dag_for(builder, [q3a])
        builder.finalize(dag_a.structural_groups())
        dag_b = self._dag_for(builder, [q3b])
        builder.finalize(dag_b.structural_groups())

        # A fresh single-query build has no cross-query derivations, so the
        # scoped view of the shared memo must not show any either.
        fresh = DagBuilder(catalog)
        fresh_dag = self._dag_for(fresh, [q3a])
        fresh.finalize(fresh_dag.structural_groups())
        scoped = {
            gid: len(dag_a.iter_mexprs(gid)) for gid in sorted(dag_a.scoped_groups())
        }
        fresh_counts = {
            gid: len(fresh_dag.iter_mexprs(gid)) for gid in sorted(fresh_dag.scoped_groups())
        }
        assert sum(scoped.values()) == sum(fresh_counts.values())
        assert len(dag_a.scoped_groups()) == len(fresh_dag.scoped_groups())

        # But a batch containing both queries derives and activates them —
        # and the single-query views stay what they were.
        dag_both = self._dag_for(builder, [q3a, q3b])
        assert builder.finalize(dag_both.structural_groups()).derivations_added > 0
        both_mexprs = sum(len(dag_both.iter_mexprs(g)) for g in dag_both.scoped_groups())
        assert both_mexprs > sum(scoped.values())
        again = self._dag_for(builder, [q3a])
        assert {
            gid: len(again.iter_mexprs(gid)) for gid in sorted(again.scoped_groups())
        } == scoped

    def test_summary_is_scoped_to_the_batch(self, catalog):
        q3a, q3b = batched_queries(1)
        builder = DagBuilder(catalog)
        dag_a = self._dag_for(builder, [q3a])
        builder.finalize(dag_a.structural_groups())
        dag_both = self._dag_for(builder, [q3a, q3b])
        builder.finalize(dag_both.structural_groups())

        fresh = DagBuilder(catalog)
        fresh_dag = self._dag_for(fresh, [q3a])
        fresh.finalize(fresh_dag.structural_groups())
        summary = dict(dag_a.summary())
        fresh_summary = dict(fresh_dag.summary())
        assert summary == fresh_summary


class TestDerivationClassification:
    def test_classification_is_immutable_once_set(self, catalog):
        from repro.dag.memo import Memo, ScanMExpr, SelectMExpr
        from repro.dag.fingerprint import RelationSignature, SPJSignature
        from repro.algebra.expressions import col, lt

        memo = Memo()
        base = memo.group_for(RelationSignature(table="orders", alias="orders"))
        memo.add_mexpr(base, ScanMExpr(table="orders", alias="orders"))
        predicate = lt(col("o_orderdate"), 19950101)
        spj = memo.group_for(
            SPJSignature(
                sources=frozenset({("orders", base.signature)}),
                predicates=frozenset({predicate}),
            )
        )
        mexpr = SelectMExpr(predicate, base.id)
        assert memo.add_derivation(spj, mexpr, (spj.id, base.id))
        assert memo.is_derivation(spj.id, mexpr)
        # A duplicate structural registration must not flip the
        # classification (batch scopes are frozen once computed)...
        assert not memo.add_mexpr(spj, mexpr)
        assert memo.is_derivation(spj.id, mexpr)
        # ...and a structural expression never becomes a derivation either.
        scan = ScanMExpr(table="orders", alias="orders")
        assert not memo.add_derivation(base, scan, (base.id, spj.id))
        assert not memo.is_derivation(base.id, scan)
