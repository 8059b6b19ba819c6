"""SPJ expansion builds the memo the plain enumeration builds, bit for bit.

:meth:`DagBuilder._expand_spj` plans each join graph's splits once per
builder and resolves each alias subset once per top-level expansion.
:class:`ReferenceBuilder` keeps the expansion without either: every call
enumerates every split, tests its connectivity and expands both sides.  Both
must give the same memo — the same group ids, signatures and multi-expression
lists in order, the same ``rows`` / ``row_width`` bits — and the same
subsumption passes.  Signatures, aliases and multi-expressions are compared
by ``repr`` too, which spells out each frozenset's iteration order: a
group's ``rows`` multiplies over its ``aliases`` in that order, so building
one of those sets differently could move the last bit of a float.
"""

import itertools
from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algebra import builder as qb
from repro.algebra.expressions import (
    Predicate,
    col,
    conjunction,
    disjunction,
    eq,
    lt,
    referenced_qualifiers,
)
from repro.algebra.logical import QueryBatch
from repro.catalog.tpcd import tpcd_catalog
from repro.cost.cardinality import SelectivityEstimator
from repro.dag.build import DagBuilder
from repro.dag.fingerprint import SPJSignature
from repro.dag.memo import JoinMExpr, SelectMExpr
from repro.dag.sharing import BatchDag
from repro.service.scheduler import _deduplicate_names
from repro.workloads.batches import composite_batch
from repro.workloads.harness.scale import ScaleSpec, build_world
from repro.workloads.harness.traffic import TrafficSpec, generate_traffic, star_templates

Sourced = Sequence[Tuple[Predicate, FrozenSet[str]]]


class ReferenceBuilder(DagBuilder):
    """A builder whose SPJ expansion enumerates every split on every call."""

    def _expand_spj(self, infos, predicates, estimator: SelectivityEstimator, resolved=None):
        aliases = frozenset(infos)
        if len(aliases) == 1 and not predicates:
            return infos[next(iter(aliases))].group_id

        sources = frozenset((alias, infos[alias].signature) for alias in aliases)
        signature = SPJSignature(sources=sources, predicates=predicates)
        group = self.memo.group_for(signature)
        if group.expanded:
            return group.id
        group.expanded = True
        group.aliases = aliases

        if len(aliases) == 1:
            info = infos[next(iter(aliases))]
            ordered = self._canonical_predicates(predicates)
            self.memo.add_mexpr(group, SelectMExpr(conjunction(ordered), info.group_id))
            group.rows = max(info.rows * estimator.selectivity(conjunction(ordered)), 1.0)
            group.row_width = info.width
            return group.id

        rows = 1.0
        width = 0.0
        for alias in aliases:
            rows *= max(infos[alias].rows, 1.0)
            width += infos[alias].width
        rows *= estimator.selectivity(conjunction(self._canonical_predicates(predicates)))
        group.rows = max(rows, 1.0)
        group.row_width = max(width, 1.0)

        sourced = [(p, referenced_qualifiers(p)) for p in predicates]
        splits = list(_enumerate_splits(aliases, sourced))
        chosen = [s for s in splits if s[3]] or splits
        for left_aliases, right_aliases, cross_preds, _ in chosen:
            left_id = self._expand_spj(
                {a: infos[a] for a in left_aliases},
                _predicates_within(sourced, left_aliases),
                estimator,
            )
            right_id = self._expand_spj(
                {a: infos[a] for a in right_aliases},
                _predicates_within(sourced, right_aliases),
                estimator,
            )
            join_pred = (
                conjunction(self._canonical_predicates(cross_preds)) if cross_preds else None
            )
            self.memo.add_mexpr(
                group,
                JoinMExpr(
                    predicate=join_pred,
                    left=left_id,
                    right=right_id,
                    left_aliases=frozenset(left_aliases),
                    right_aliases=frozenset(right_aliases),
                ),
            )
        return group.id


def _predicates_within(sourced: Sourced, aliases: FrozenSet[str]) -> FrozenSet[Predicate]:
    return frozenset(p for p, quals in sourced if quals and quals <= aliases)


def _enumerate_splits(aliases: FrozenSet[str], sourced: Sourced):
    ordered = sorted(aliases)
    anchor, rest = ordered[0], ordered[1:]
    for size in range(len(rest)):
        for combo in itertools.combinations(rest, size):
            left = frozenset({anchor, *combo})
            right = aliases - left
            cross = frozenset(
                p
                for p, quals in sourced
                if quals and quals & left and quals & right and quals <= aliases
            )
            well_connected = (
                bool(cross) and _is_connected(left, sourced) and _is_connected(right, sourced)
            )
            yield left, right, cross, well_connected


def _is_connected(aliases: FrozenSet[str], sourced: Sourced) -> bool:
    if len(aliases) <= 1:
        return True
    adjacency: Dict[str, set] = {a: set() for a in aliases}
    for _, quals in sourced:
        quals = quals & aliases
        if len(quals) < 2:
            continue
        for a, b in itertools.combinations(sorted(quals), 2):
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen = set()
    stack = [next(iter(aliases))]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(adjacency[node] - seen)
    return len(seen) == len(aliases)


# --------------------------------------------------------------- comparison


def _bits(value) -> Tuple[str, str]:
    return type(value).__name__, float(value).hex()


def memo_view(memo):
    """Everything a group is, with each frozenset in its iteration order."""
    return [
        (
            group.id,
            group.signature,
            repr(group.signature),
            repr(group.aliases),
            _bits(group.rows),
            _bits(group.row_width),
            group.expanded,
            list(group.mexprs),
            [repr(m) for m in group.mexprs],
            [memo.derivation_pairs(group.id, m) for m in group.mexprs],
        )
        for group in memo
    ]


def prepare(builder: DagBuilder, batch: QueryBatch):
    """Intern one batch and run its subsumption pass, as a session prepares it."""
    interned = builder.intern_batch(batch)
    dag = BatchDag(
        memo=builder.memo,
        catalog=builder.catalog,
        query_roots=interned.query_roots,
        block_roots=interned.block_roots,
        config=builder.config,
    )
    return interned, builder.finalize(dag.structural_groups())


def assert_same_memo(catalog, batches: Iterable[QueryBatch]) -> None:
    """Both builders, fed the same batches in turn: same roots and passes, then same memo."""
    real, reference = DagBuilder(catalog), ReferenceBuilder(catalog)
    for batch in batches:
        assert prepare(real, batch) == prepare(reference, batch)
    assert memo_view(real.memo) == memo_view(reference.memo)


# ------------------------------------------------------------------ batches


def test_composite_batches():
    catalog = tpcd_catalog(1.0)
    for index in range(1, 7):
        assert_same_memo(catalog, [composite_batch(index)])


def test_star_serving_trace():
    """The benchmark's 180 requests through one builder, micro-batch by micro-batch."""
    requests = generate_traffic(
        star_templates(6), TrafficSpec(requests=180, tenants=8, zipf=1.2, seed=5)
    )
    batches = [
        QueryBatch(
            f"micro-{at}",
            _deduplicate_names([request.query for request in requests[at : at + 4]]),
        )
        for at in range(0, len(requests), 4)
    ]
    assert_same_memo(build_world(ScaleSpec(scale=1.0), "star").catalog, batches)


# --------------------------------------------------------- generated graphs

#: (table, column) per alias slot: every pair of slots joins on numbers.
_COLUMNS = (
    ("customer", "c_custkey"),
    ("orders", "o_custkey"),
    ("lineitem", "l_orderkey"),
    ("orders", "o_orderkey"),
    ("part", "p_partkey"),
    ("supplier", "s_suppkey"),
)


def _edges(shape: str, n: int):
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "cycle":
        return [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    return list(itertools.combinations(range(n), 2))  # clique


@st.composite
def join_graph_batches(draw):
    """Two queries over one 2–6-alias join graph, differing in their selections."""
    n = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(("chain", "star", "cycle", "clique")))
    aliases = [f"a{i}" for i in range(n)]

    def column(i):
        return col(_COLUMNS[i][1], aliases[i])

    joins = [eq(column(i), column(j)) for i, j in _edges(shape, n)]
    three_way = None
    if n >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(n)))[:3]
        three_way = disjunction([eq(column(i), column(j)), lt(column(k), 50)])
    cutoffs = st.one_of(st.none(), st.integers(1, 4).map(lambda c: 100 * c))
    queries = []
    for name in ("q0", "q1"):
        selections = [
            lt(column(i), cutoff)
            for i, cutoff in enumerate(draw(st.lists(cutoffs, min_size=n, max_size=n)))
            if cutoff is not None
        ]
        plan = qb.scan(_COLUMNS[0][0], aliases[0])
        for i in range(1, n):
            plan = plan.join(qb.scan(_COLUMNS[i][0], aliases[i]))
        predicates = joins + selections + ([three_way] if three_way is not None else [])
        queries.append(plan.filter(*predicates).query(name))
    return QueryBatch("generated", tuple(queries))


_CATALOG = tpcd_catalog(0.1)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(join_graph_batches())
def test_generated_join_graphs(batch):
    assert_same_memo(_CATALOG, [batch])


def test_split_plans_are_shared_by_join_graph():
    """Two blocks over one join graph share the plan; the memo still differs by predicates."""
    builder = DagBuilder(_CATALOG)
    a = (
        qb.scan("orders")
        .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
        .filter(lt(col("o_orderdate"), 19950101))
        .query("a")
    )
    b = (
        qb.scan("orders")
        .join(qb.scan("lineitem"), eq(col("o_orderkey"), col("l_orderkey")))
        .filter(lt(col("l_quantity"), 10))
        .query("b")
    )
    builder.intern_query(a)
    plans = dict(builder._split_plans)
    builder.intern_query(b)
    assert builder._split_plans == plans  # b's graph is a's: nothing new to plan
    assert len({builder.intern_query(q)[0] for q in (a, b)}) == 2
