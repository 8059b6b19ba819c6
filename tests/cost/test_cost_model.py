"""Tests for the resource-consumption cost model and the cardinality estimator."""

import pytest

from repro.algebra.expressions import between, col, disjunction, eq, ge, gt, in_list, lt, ne
from repro.catalog.tpcd import tpcd_catalog
from repro.cost.cardinality import CatalogResolver, ColumnInfo, SelectivityEstimator
from repro.cost.model import CostModel, CostParameters


@pytest.fixture(scope="module")
def model():
    return CostModel()


@pytest.fixture(scope="module")
def estimator():
    catalog = tpcd_catalog(1)
    return SelectivityEstimator(CatalogResolver(catalog, {"n1": "nation", "n2": "nation"}))


class TestCostParameters:
    def test_paper_constants(self):
        params = CostParameters()
        assert params.block_size == 4096
        assert params.seek_ms == 10.0
        assert params.read_ms_per_block == 2.0
        assert params.write_ms_per_block == 4.0
        assert params.cpu_ms_per_block == 0.2
        assert params.memory_blocks == (6 * 1024 * 1024) // 4096

    def test_with_memory(self):
        big = CostParameters().with_memory(128 * 1024 * 1024)
        assert big.memory_blocks > CostParameters().memory_blocks


class TestCostModel:
    def test_blocks(self, model):
        assert model.blocks(0, 100) == 1.0
        assert model.blocks(1000, 100) == pytest.approx(25.0)

    def test_table_scan_scales_with_size(self, model):
        small = model.table_scan(1000, 100)
        large = model.table_scan(1_000_000, 100)
        assert large > small > 0

    def test_indexed_selection_cheaper_than_scan(self, model):
        scan = model.table_scan(1_000_000, 100)
        index = model.indexed_selection(1_000_000, 100, selectivity=0.01)
        assert index < scan

    def test_sort_in_memory_vs_external(self, model):
        in_memory = model.sort(1000, 100)
        external = model.sort(10_000_000, 100)
        assert external > in_memory
        # External sorts pay I/O, in-memory sorts only CPU (well under one seek+scan).
        assert in_memory <= model.parameters.seek_ms

    def test_merge_join_is_cpu_only(self, model):
        cost = model.merge_join(10_000, 100, 10_000, 100, 10_000)
        assert cost < model.table_scan(10_000, 100)

    def test_nested_loop_join_grows_with_outer(self, model):
        small_outer = model.nested_loop_join(1_000, 100, 100_000, 100, inner_is_stored=True)
        large_outer = model.nested_loop_join(10_000_000, 100, 100_000, 100, inner_is_stored=True)
        assert large_outer > small_outer

    def test_nested_loop_spools_unstored_inner(self, model):
        stored = model.nested_loop_join(10_000, 100, 100_000, 100, inner_is_stored=True)
        spooled = model.nested_loop_join(10_000, 100, 100_000, 100, inner_is_stored=False)
        assert spooled >= stored

    def test_index_nested_loop_join_positive(self, model):
        cost = model.index_nested_loop_join(1_000, 1_000_000, 100, 1_000_000)
        assert cost > 0

    def test_materialize_and_read_back(self, model):
        write = model.materialize(100_000, 100)
        read = model.read_materialized(100_000, 100)
        assert write > read > 0  # writes cost 4ms/block vs 2ms/block reads

    def test_filter_project_aggregate_are_cpu_bound(self, model):
        assert model.filter(100_000, 100) < model.table_scan(100_000, 100)
        assert model.project(100_000, 100) <= model.filter(100_000, 100)
        assert model.sort_aggregate(100_000, 100) < model.table_scan(100_000, 100)
        assert model.scalar_aggregate(100_000, 100) > 0


class TestSelectivity:
    def test_equality_uses_distinct(self, estimator):
        assert estimator.selectivity(eq(col("c_mktsegment"), "BUILDING")) == pytest.approx(0.2)
        assert estimator.selectivity(ne(col("c_mktsegment"), "BUILDING")) == pytest.approx(0.8)

    def test_range_uses_bounds(self, estimator):
        half = estimator.selectivity(lt(col("o_orderdate"), 19950419))
        assert 0.3 < half < 0.7
        assert estimator.selectivity(ge(col("o_orderdate"), 19980802)) == pytest.approx(0.0, abs=1e-6)

    def test_between(self, estimator):
        # Note: dates are encoded as YYYYMMDD integers, so a one-year range
        # covers a smaller fraction of the numeric span than of calendar time.
        year = estimator.selectivity(between(col("o_orderdate"), 19940101, 19941231))
        assert 0.005 < year < 0.25

    def test_join_predicate(self, estimator):
        sel = estimator.selectivity(eq(col("c_custkey"), col("o_custkey")))
        assert sel == pytest.approx(1.0 / 150_000)

    def test_in_list(self, estimator):
        sel = estimator.selectivity(in_list(col("c_mktsegment"), ["BUILDING", "MACHINERY"]))
        assert sel == pytest.approx(0.4)

    def test_disjunction_inclusion_exclusion(self, estimator):
        p = disjunction([eq(col("c_mktsegment"), "BUILDING"), eq(col("c_mktsegment"), "MACHINERY")])
        assert estimator.selectivity(p) == pytest.approx(1 - 0.8 * 0.8)

    def test_conjunction_independence(self, estimator):
        p = eq(col("c_mktsegment"), "BUILDING") & eq(col("c_nationkey"), 7)
        assert estimator.selectivity(p) == pytest.approx(0.2 * (1 / 25))

    def test_unknown_column_defaults(self, estimator):
        sel = estimator.selectivity(eq(col("mystery_column"), 1))
        assert 0 < sel <= 1

    def test_aliased_self_join_columns(self, estimator):
        sel = estimator.selectivity(eq(col("n1.n_name"), "FRANCE"))
        assert sel == pytest.approx(1 / 25)

    def test_cardinalities(self, estimator):
        assert estimator.select_cardinality(1000, eq(col("c_mktsegment"), "BUILDING")) == pytest.approx(200)
        assert estimator.join_cardinality(1000, 1000, None) == 1_000_000
        groups = estimator.group_cardinality(10_000, (col("c_mktsegment"),))
        assert groups == pytest.approx(5)
        assert estimator.group_cardinality(10, ()) == 1.0

    def test_group_cardinality_capped_by_rows(self, estimator):
        groups = estimator.group_cardinality(100, (col("c_custkey"), col("o_orderdate")))
        assert groups <= 100

    def test_column_info_range(self):
        info = ColumnInfo(distinct=10, min_value=0, max_value=100)
        assert info.value_range == 100
        assert ColumnInfo(distinct=10).value_range is None


class FalsyDict(dict):
    """A mapping that is falsy regardless of contents (e.g. a lazy view)."""

    def __bool__(self):
        return False


def test_catalog_resolver_honors_falsy_alias_mappings():
    catalog = tpcd_catalog(0.01)
    table = next(iter(catalog.tables))
    column = next(iter(catalog.tables[table].columns))

    from repro.algebra.expressions import ColumnRef

    aliased = CatalogResolver(
        catalog, alias_tables=FalsyDict({"v": table}), derived_rows=None
    )
    direct = CatalogResolver(catalog, alias_tables={"v": table})
    ref = ColumnRef(name=column, qualifier="v")
    assert aliased.resolve(ref) == direct.resolve(ref)

    derived = CatalogResolver(catalog, derived_rows=FalsyDict({"d": 42.0}))
    info = derived.resolve(ColumnRef(name="anything", qualifier="d"))
    assert info is not None and info.distinct == 42.0
