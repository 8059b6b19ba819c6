"""Exact oracle and DP counts of the two optimizer benchmark workloads.

The same numbers ``python3 -m benchmarks.perf run --trace 1`` reports for
``tpcd_cold`` and ``star_serving``: they are functions of the code alone (no
timing, no hash seed), so a change that moves one of them unannounced fails
here rather than in a CI artifact somebody has to read.  The DP entry counts
depend on the plan DP's lower-bound skipping (a skipped candidate's inputs
are never derived); the oracle counts and the memo size do not.

MarginalGreedy's marginals move one remembered table to each set they ask
about and put it back (``BestCostEngine.moved_use_costs``).  Each such set
counts as one incremental evaluation that no later ``evaluate`` finds in the
result cache, and its DP work counts as a ``best_cost`` call's would: the
entries it re-derived, every entry it derived, the candidates it skipped,
and the rest of the moved table as reused.
"""

from repro.algebra.logical import QueryBatch
from repro.catalog.tpcd import tpcd_catalog
from repro.service.scheduler import _deduplicate_names
from repro.service.session import OptimizerSession
from repro.workloads.batches import composite_batch
from repro.workloads.harness.scale import ScaleSpec, build_world
from repro.workloads.harness.traffic import TrafficSpec, generate_traffic, star_templates


def optimizer_counters(session):
    counters = session.obs.registry.snapshot()["counters"]
    prefix = "optimizer_"
    return {name[len(prefix) :]: value for name, value in counters.items() if name.startswith(prefix)}


def test_cold_bq2():
    session = OptimizerSession(tpcd_catalog(1.0))
    result = session.optimize(composite_batch(2))
    counters = optimizer_counters(session)
    assert result.oracle_calls == 370
    assert counters["evaluations"] == 370
    assert counters["result_cache_hits"] == 186
    assert counters["full_evaluations"] == 1
    assert counters["incremental_evaluations"] == 183
    assert counters["invalidated_entries"] == 2707
    assert counters["dp_entries_recomputed"] == 2913
    assert counters["dp_entries_reused"] == 36089
    assert counters["candidates_skipped"] == 18432
    assert counters["plans_extracted"] == 1
    memo = session.memo.stats()
    assert (memo["groups"], memo["mexprs"]) == (108, 355)
    assert len(result.materialized) == 2
    assert result.total_cost / result.volcano_cost == 0.9672905891496855


def test_star_serving_trace():
    """The benchmark's 180-request trace, in the scheduler's micro-batches of 4."""
    catalog = build_world(ScaleSpec(scale=1.0), "star").catalog
    requests = generate_traffic(
        star_templates(6), TrafficSpec(requests=180, tenants=8, zipf=1.2, seed=5)
    )
    session = OptimizerSession(catalog)
    materialized = 0
    for at in range(0, len(requests), 4):
        queries = _deduplicate_names([request.query for request in requests[at : at + 4]])
        materialized += len(session.optimize(QueryBatch(f"micro-{at}", queries)).materialized)
    counters = optimizer_counters(session)
    assert counters["evaluations"] == 4475
    assert counters["evaluations"] - counters["result_cache_hits"] == 2170
    assert counters["incremental_evaluations"] == 2125
    assert counters["invalidated_entries"] == 36333
    assert counters["dp_entries_recomputed"] == 40144
    assert counters["dp_entries_reused"] == 157384
    assert counters["candidates_skipped"] == 139278
    assert counters["plans_extracted"] == 45
    assert materialized == 45
