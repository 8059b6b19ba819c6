"""Batch-scoped subsumption: a batch sees the DAG a fresh build would give it.

The pass relates only the groups one batch's own queries contain, so what a
warm session derives for a batch — and what the pass costs — is a function
of the batch, never of the traffic the shared memo absorbed before it.
"""

import dataclasses
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import builder as qb
from repro.algebra.expressions import Or, col, disjunction, eq, lt
from repro.algebra.logical import QueryBatch
from repro.catalog.catalog import Catalog
from repro.catalog.tpcd import tpcd_catalog
from repro.dag.build import DagBuilder, DagConfig
from repro.dag.fingerprint import SPJSignature
from repro.dag.sharing import build_batch_dag
from repro.obs import InMemorySink, Observability, Tracer
from repro.service import OptimizerSession
from repro.workloads.harness import TrafficSpec, generate_traffic, star_templates
from repro.workloads.harness.scale import merge_catalogs
from repro.workloads.synthetic import random_star_query, star_schema_catalog
from repro.workloads.tpcd_queries import batched_queries

UNBOUNDED = DagConfig(max_or_groups_per_sources=10**6)


# --------------------------------------------------------------- comparisons


def scoped_view(dag):
    """The batch's scoped DAG with every group id replaced by its signature."""
    signature_of = dag.memo.signature_of

    def by_signature(mexpr):
        children = {
            f.name: signature_of(getattr(mexpr, f.name))
            for f in dataclasses.fields(mexpr)
            if f.name in ("child", "left", "right")
        }
        return dataclasses.replace(mexpr, **children)

    return {
        signature_of(gid): frozenset(by_signature(m) for m in dag.iter_mexprs(gid))
        for gid in dag.scoped_groups()
    }


def candidates_view(dag):
    return Counter(
        (dag.memo.signature_of(c.group), c.order) for c in dag.shareable_candidates()
    )


def materialized_view(result, dag):
    return {
        (dag.memo.signature_of(getattr(e, "group", e)), str(getattr(e, "order", "")))
        for e in result.materialized
    }


def is_relaxed(signature):
    return isinstance(signature, SPJSignature) and any(
        isinstance(p, Or) for p in signature.predicates
    )


def relaxed_groups_per_sources(memo):
    return Counter(g.signature.sources for g in memo if is_relaxed(g.signature))


# ------------------------------------------------------------------ queries


def star(name, dims, *predicates):
    plan = qb.scan("fact")
    for i in dims:
        plan = plan.join(qb.scan(f"dim{i}"), eq(col(f"f_d{i}_key"), col(f"d{i}_key")))
    plan = plan.filter(*predicates) if predicates else plan
    key = f"d{dims[0]}_attr" if dims else "f_id"
    return plan.aggregate([key], [("sum", "f_value", "total")]).query(name)


def fact_below(name, bound):
    return star(name, (), lt(col("f_value"), bound))


def lopsided_star_catalog():
    """A 3-dimension star whose dimensions differ in size.

    Strategies break exact cost ties between candidates by group id, and ids
    legitimately differ between a warm and a fresh memo; with same-sized
    dimensions, queries that mirror each other over different dimensions tie
    exactly.  Different sizes leave no such symmetry.
    """
    catalog = Catalog()
    for i, rows in enumerate((10_000, 7_000, 4_000)):
        donor = star_schema_catalog(n_dimensions=3, dimension_rows=rows, key_fanout=4)
        for name in ("fact", "dim0") if i == 0 else (f"dim{i}",):
            catalog.add_table(
                donor.tables[name], donor.statistics[name], donor.table_indexes(name)
            )
    return catalog


CATALOG = merge_catalogs(lopsided_star_catalog(), tpcd_catalog(1.0))
_rng = random.Random(7)
POOL = [
    random_star_query(
        f"S{i}", _rng, n_dimensions_available=3, min_dimensions=2, max_dimensions=3
    )
    for i in range(12)
] + batched_queries(3)


@st.composite
def traffic(draw):
    """Random batches over the pool, some served again in another order."""
    member = st.integers(min_value=0, max_value=len(POOL) - 1)
    batches = draw(
        st.lists(
            st.lists(member, min_size=1, max_size=5, unique=True), min_size=1, max_size=4
        )
    )
    for again in draw(st.lists(st.sampled_from(batches), max_size=2)):
        batches.append(draw(st.permutations(again)))
    # One prepared batch kept: re-served batches are evicted and re-prepared.
    max_cached_batches = draw(st.sampled_from((1, 16)))
    return [
        QueryBatch(f"b{i}", tuple(POOL[j] for j in members))
        for i, members in enumerate(batches)
    ], max_cached_batches


# ------------------------------------------------------- warm equals fresh


def test_manufactured_inputs_are_related_when_a_later_batch_contains_them():
    """A group the pass built as an *input* of a common group is an ordinary group.

    Batch 1 makes the pass build ``fact⋈dim0⋈dim1 | f_value<500`` and, as one
    of its inputs, ``fact⋈dim0 | f_value<500``.  Batch 2's first query lands
    on the former, so the latter is structural for batch 2 and must be
    relaxed against ``fact⋈dim0 | f_value<900`` exactly as in a fresh build.
    """
    catalog = star_schema_catalog(n_dimensions=3)
    below_500 = lt(col("f_value"), 500)
    first = QueryBatch(
        "first",
        (
            star("a", (0, 1), below_500, lt(col("d0_attr"), 10)),
            star("b", (0, 1), below_500, lt(col("d0_attr"), 20)),
        ),
    )
    second = QueryBatch(
        "second",
        (star("c", (0, 1), below_500), star("d", (0,), lt(col("f_value"), 900))),
    )
    warm = OptimizerSession(catalog, dag_config=UNBOUNDED)
    warm.prepare(first)
    warm_view = scoped_view(warm.prepare(second).dag)
    fresh_view = scoped_view(
        OptimizerSession(catalog, dag_config=UNBOUNDED).prepare(second).dag
    )
    assert len(fresh_view) == 14
    assert warm_view == fresh_view


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(traffic())
def test_warm_dag_equals_fresh_dag(case):
    """With a non-binding OR budget every batch gets the fresh build's DAG."""
    batches, max_cached_batches = case
    warm = OptimizerSession(
        CATALOG, dag_config=UNBOUNDED, max_cached_batches=max_cached_batches
    )
    for batch in batches:
        warm_dag = warm.prepare(batch).dag
        fresh_dag = OptimizerSession(CATALOG, dag_config=UNBOUNDED).prepare(batch).dag
        assert scoped_view(warm_dag) == scoped_view(fresh_dag)
        assert candidates_view(warm_dag) == candidates_view(fresh_dag)


# derandomize: an accidental exact cost tie between two candidates would be
# broken by group id (see lopsided_star_catalog), i.e. differently warm and
# fresh; CI must not depend on whether a random run happens to draw one.
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(traffic())
def test_warm_plans_equal_fresh_plans(case):
    """Default config: same costs and same materializations as a fresh session."""
    batches, max_cached_batches = case
    warm = OptimizerSession(CATALOG, max_cached_batches=max_cached_batches)
    for batch in batches:
        for strategy in ("marginal-greedy", "greedy"):
            fresh = OptimizerSession(CATALOG)
            got = warm.optimize(batch, strategy=strategy)
            want = fresh.optimize(batch, strategy=strategy)
            # A re-ordered batch is served from the prepared one, which sums
            # the same per-query costs in the order it first saw them.
            assert got.total_cost == pytest.approx(want.total_cost, rel=1e-12)
            assert got.volcano_cost == pytest.approx(want.volcano_cost, rel=1e-12)
            assert got.query_costs == want.query_costs
            assert materialized_view(got, warm.prepare(batch).dag) == materialized_view(
                want, fresh.prepare(batch).dag
            )


# ------------------------------------------------- the pass's cost is the batch's


def test_pairs_compared_do_not_depend_on_session_age():
    """The ``star_serving`` trace: each pass compares what a fresh session would."""
    requests = generate_traffic(
        star_templates(6), TrafficSpec(requests=180, tenants=8, zipf=1.2, seed=5)
    )
    catalog = star_schema_catalog(n_dimensions=4)
    tracer = Tracer(InMemorySink())
    session = OptimizerSession(catalog, obs=Observability(tracer=tracer))
    per_pass = []
    for at in range(0, len(requests), 4):
        batch = QueryBatch(
            f"micro-{at}",
            tuple(
                dataclasses.replace(r.query, name=f"r{r.index}")
                for r in requests[at : at + 4]
            ),
        )
        before = session.statistics.subsumption_pairs
        dag = session.prepare(batch).dag
        pairs = session.statistics.subsumption_pairs - before
        buckets = Counter(
            signature.sources
            for signature in map(session.memo.signature_of, dag.structural_groups())
            if isinstance(signature, SPJSignature)
        )
        assert pairs <= sum(comb(k, 2) for k in buckets.values())
        fresh = OptimizerSession(catalog)
        fresh.prepare(batch)
        assert pairs == fresh.statistics.subsumption_pairs
        per_pass.append(pairs)

    assert session.statistics.subsumption_runs == len(per_pass) == 45
    assert sum(per_pass) == session.statistics.subsumption_pairs
    # Flat over the trace (the memo-wide pass: 135k iterations in the first
    # 22 batches, 334k in the last 23).
    half = len(per_pass) // 2
    assert sum(per_pass[half:]) / (len(per_pass) - half) <= 1.25 * sum(per_pass[:half]) / half

    spans = [r for r in tracer.sink.records if r["name"] == "optimize.subsume"]
    assert [s["attrs"]["pairs"] for s in spans] == per_pass
    assert all(s["attrs"]["groups"] > 0 for s in spans)
    assert sum(s["attrs"]["derivations_added"] for s in spans) > 0
    assert "session_subsumption_pairs" in session.obs.registry.render_prometheus()


def test_new_combination_of_known_queries_runs_the_pass():
    catalog = star_schema_catalog(n_dimensions=3)
    a = star("a", (0, 1), lt(col("d0_attr"), 10))
    b = star("b", (0, 1), lt(col("d0_attr"), 20))
    session = OptimizerSession(catalog)
    session.prepare([a])
    session.prepare([b])
    version = session.memo.version
    both = session.prepare([a, b]).dag  # nothing new interned, yet new pairs
    assert session.statistics.queries_interned == 2
    assert session.statistics.subsumption_runs == 3
    assert session.memo.version > version
    assert scoped_view(both) == scoped_view(OptimizerSession(catalog).prepare([a, b]).dag)
    session.prepare([b, a])  # the same batch again: served from the batch cache
    assert session.statistics.subsumption_runs == 3


# ------------------------------------------------------------- the OR budget


class TestOrGroupBudget:
    CATALOG = star_schema_catalog(n_dimensions=2)

    def test_relaxed_groups_created_per_source_set_stay_within_budget(self):
        # Single-source queries: every relaxed group lies over {fact} itself,
        # none is a by-product of expanding a relaxed group over more sources.
        bounds = list(range(100, 1300, 100))
        batches = [
            [fact_below(f"q{b}", b) for b in bounds[at : at + 4]] for at in (0, 4, 8, 2, 6)
        ]
        for budget in (0, 3, 8):
            session = OptimizerSession(
                self.CATALOG, dag_config=DagConfig(max_or_groups_per_sources=budget)
            )
            for batch in batches:
                session.prepare(batch)
                created = relaxed_groups_per_sources(session.memo)
                assert all(count <= budget for count in created.values())
            assert sum(created.values()) == budget  # 26 distinct pairs wanted one
        unbounded = OptimizerSession(self.CATALOG, dag_config=UNBOUNDED)
        for batch in batches:
            unbounded.prepare(batch)
        assert sum(relaxed_groups_per_sources(unbounded.memo).values()) == 26

    def test_existing_relaxed_group_is_wired_after_the_budget_is_spent(self):
        session = OptimizerSession(
            self.CATALOG, dag_config=DagConfig(max_or_groups_per_sources=1)
        )
        session.prepare([fact_below("x", 400), fact_below("y", 500)])  # spends it
        assert sum(relaxed_groups_per_sources(session.memo).values()) == 1
        # A submitted query that *is* the relaxation of a and b.
        either = star(
            "either", (), disjunction([lt(col("f_value"), 100), lt(col("f_value"), 200)])
        )
        session.prepare([either])
        dag = session.prepare(
            [fact_below("a", 100), fact_below("b", 200), fact_below("c", 300)]
        ).dag
        # No relaxed group was created for (a, c) or (b, c) ...
        assert sum(relaxed_groups_per_sources(session.memo).values()) == 2
        # ... but a and b are both derivable from the group that was there.
        target = next(
            gid
            for gid in dag.scoped_groups()
            if is_relaxed(session.memo.signature_of(gid))
        )
        consumers = {
            gid
            for gid in dag.structural_groups()
            for mexpr in dag.iter_mexprs(gid)
            if session.memo.is_derivation(gid, mexpr) and mexpr.child == target
        }
        assert len(consumers) == 2

    @pytest.mark.parametrize(
        "config",
        [DagConfig(enable_or_subsumption=False), DagConfig(enable_subsumption=False)],
    )
    def test_disabled_relaxation_creates_no_relaxed_group(self, config):
        batch = QueryBatch("pair", (fact_below("a", 100), fact_below("b", 200)))
        dag = build_batch_dag(batch, self.CATALOG, config)
        assert not relaxed_groups_per_sources(dag.memo)
        assert relaxed_groups_per_sources(build_batch_dag(batch, self.CATALOG).memo)
        if not config.enable_subsumption:
            builder = DagBuilder(self.CATALOG, config)
            builder.intern_batch(batch)
            assert builder.finalize(range(len(builder.memo))) == (0, 0, 0)
            assert all(
                not dag.memo.is_derivation(g.id, m) for g in dag.memo for m in g.mexprs
            )
