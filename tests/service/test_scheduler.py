"""BatchScheduler: micro-batching, futures, error propagation, shutdown."""

import threading
import time
from dataclasses import replace

import pytest

from repro.catalog.tpcd import tpcd_catalog
from repro.dag.fingerprint import canonical_key
from repro.execution import Executor
from repro.optimizer.volcano import split_candidate
from repro.service import BatchScheduler, OptimizerSession, QueryOutcome
from repro.service.scheduler import _deduplicate_names
from repro.workloads.batches import composite_batch
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)
from repro.workloads.tpcd_queries import batched_queries


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(0.05)


def test_submit_resolves_with_per_query_costs(catalog):
    session = OptimizerSession(catalog)
    queries = batched_queries(1)  # Q3a, Q3b
    with BatchScheduler(session, max_batch_size=2, max_delay=0.2, strategy="greedy") as sched:
        futures = [sched.submit(q) for q in queries]
        outcomes = [f.result(timeout=120) for f in futures]
    assert {o.query_name for o in outcomes} == {q.name for q in queries}
    for outcome in outcomes:
        assert isinstance(outcome, QueryOutcome)
        assert outcome.strategy == "greedy"
        assert outcome.cost > 0
        assert outcome.cost == outcome.batch_result.query_costs[outcome.query_name]


def test_single_query_micro_batches_match_session(catalog):
    session = OptimizerSession(catalog)
    query = batched_queries(1)[0]
    with BatchScheduler(session, max_batch_size=1, strategy="volcano") as sched:
        outcome = sched.submit(query).result(timeout=120)
    direct = OptimizerSession(catalog).optimize([query], strategy="volcano")
    assert outcome.cost == pytest.approx(direct.query_costs[query.name])


def test_duplicate_names_are_deduplicated(catalog):
    session = OptimizerSession(catalog)
    query = batched_queries(1)[0]
    with BatchScheduler(session, max_batch_size=2, max_delay=0.2) as sched:
        futures = [sched.submit(query), sched.submit(query)]
        names = {f.result(timeout=120).query_name for f in futures}
    # Identical queries may ride in one micro-batch (renamed) or in two.
    assert query.name in names
    assert all(name.startswith(query.name) for name in names)


def test_deduplicate_probes_past_existing_suffixed_names():
    """Regression: renaming the second ``q`` to ``q#2`` must not collide with
    a query literally named ``q#2`` already in the micro-batch (two futures
    would then read the same result slot)."""
    q = batched_queries(1)[0]
    q_clash = replace(q, name=f"{q.name}#2")
    for order in ([q, q_clash, q], [q, q, q_clash], [q_clash, q, q]):
        names = [query.name for query in _deduplicate_names(order)]
        assert len(set(names)) == len(names), names
        # Originals keep their names; only true clashes are renamed.
        assert q.name in names and q_clash.name in names


def test_duplicate_and_suffixed_names_resolve_concurrently(catalog):
    """The same regression end-to-end: submit q, q#2, q into one micro-batch
    and every future must resolve with its own name and cost."""
    session = OptimizerSession(catalog)
    q = batched_queries(1)[0]
    q_clash = replace(q, name=f"{q.name}#2")
    with BatchScheduler(session, max_batch_size=3, max_delay=0.5) as sched:
        futures = [sched.submit(q), sched.submit(q_clash), sched.submit(q)]
        outcomes = [f.result(timeout=120) for f in futures]
    names = [o.query_name for o in outcomes]
    assert len(set(names)) == 3, names
    for outcome in outcomes:
        assert outcome.cost == outcome.batch_result.query_costs[outcome.query_name]


def test_flush_does_not_busy_spin_while_queue_drains(catalog):
    """Regression: flush() with no pending futures but a non-empty queue used
    to call wait_futures([], ...) in a hot loop, burning a core.  The loop
    must now sleep on that branch — assert a bounded iteration count via the
    pending-lock acquisitions it performs per pass."""

    class CountingLock:
        def __init__(self, inner):
            self.inner = inner
            self.count = 0

        def __enter__(self):
            self.count += 1
            return self.inner.__enter__()

        def __exit__(self, *exc_info):
            return self.inner.__exit__(*exc_info)

    session = OptimizerSession(catalog)
    sched = BatchScheduler(session)
    sched.close()  # collector gone: whatever we enqueue now stays queued
    sched._queue.put(object())  # simulates a slow collector pass
    counting = CountingLock(sched._pending_lock)
    sched._pending_lock = counting
    started = time.process_time()
    with pytest.raises(TimeoutError):
        sched.flush(timeout=0.3)
    cpu = time.process_time() - started
    # One lock acquisition per loop pass: a busy spin does tens of thousands
    # in 0.3s; the sleeping loop does ~30.
    assert counting.count < 200, f"flush spun {counting.count} times"
    assert cpu < 0.25, f"flush burned {cpu:.3f}s CPU in a 0.3s window"


def test_submit_batch_bypasses_micro_batching(catalog):
    session = OptimizerSession(catalog)
    with BatchScheduler(session) as sched:
        result = sched.submit_batch(composite_batch(1), strategy="volcano").result(timeout=120)
    assert result.batch_name == "BQ1"
    assert result.strategy == "volcano"


def test_errors_propagate_to_submitters(catalog):
    """An optimize failure fails every submitter of the micro-batch."""
    session = OptimizerSession(catalog)
    q1, q2 = batched_queries(1)
    with BatchScheduler(
        session, max_batch_size=2, max_delay=0.5, strategy="no-such-strategy"
    ) as sched:
        futures = [sched.submit(q1), sched.submit(q2, execute=True)]
        sched.flush(timeout=120)
        assert all(future.done() for future in futures)
        for future in futures:
            with pytest.raises(ValueError, match="unknown strategy"):
                future.result(timeout=0)


def test_close_resolves_mixed_strategy_backlog(catalog):
    """Shutdown must not strand submissions deferred for a later micro-batch."""
    session = OptimizerSession(catalog)
    q1, q2 = batched_queries(1)
    sched = BatchScheduler(session, max_batch_size=4, max_delay=5.0)
    f1 = sched.submit(q1, strategy="greedy")
    f2 = sched.submit(q2, strategy="volcano")  # deferred: different strategy
    sched.close()  # sentinel arrives while the greedy batch is collecting
    assert f1.result(timeout=120).strategy == "greedy"
    assert f2.result(timeout=120).strategy == "volcano"


def test_closed_scheduler_rejects_submissions(catalog):
    session = OptimizerSession(catalog)
    sched = BatchScheduler(session)
    sched.close()
    with pytest.raises(RuntimeError):
        sched.submit(batched_queries(1)[0])
    with pytest.raises(RuntimeError):
        sched.submit_batch(composite_batch(1))


def test_concurrent_mixed_traffic_matches_direct_execution():
    """Many submitter threads and workers, mixed executed queries through
    one session: every outcome's rows match a direct execution."""
    star_catalog = star_schema_catalog(n_dimensions=4)
    star_db = star_schema_database(seed=9, n_dimensions=4)
    session = OptimizerSession(star_catalog, database=star_db)
    queries = [
        query
        for seed in (1, 2, 5)
        for query in random_star_batch(3, seed=seed, n_dimensions=4)
    ]
    barrier = threading.Barrier(4)
    submitted = []  # (query, future) pairs — names repeat across seeds
    errors = []

    with BatchScheduler(
        session, max_batch_size=4, max_delay=0.05, workers=4, strategy="greedy"
    ) as scheduler:

        def submitter(chunk):
            try:
                barrier.wait(timeout=30)
                submitted.extend((q, scheduler.submit(q, execute=True)) for q in chunk)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        chunks = [queries[0::4], queries[1::4], queries[2::4], queries[3::4]]
        threads = [threading.Thread(target=submitter, args=(c,)) for c in chunks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        outcomes = [(query, future.result(timeout=300)) for query, future in submitted]

    assert len(outcomes) == len(queries)
    reference = OptimizerSession(star_catalog, database=star_db)
    for query, outcome in outcomes:
        assert outcome.rows is not None
        assert outcome.query_name.split("#")[0] == query.name
        assert outcome.rows == reference.execute(query, strategy="greedy")


def test_micro_batches_group_by_strategy_alone(catalog):
    """Same-strategy companions share one micro-batch through the one
    session; a different strategy rides in a micro-batch of its own."""
    session = OptimizerSession(catalog)
    q1, q2 = batched_queries(1)
    with BatchScheduler(session, max_batch_size=8, max_delay=0.5) as sched:
        greedy = [sched.submit(q, strategy="greedy") for q in (q1, q2)]
        volcano = sched.submit(q1, strategy="volcano")
        g1, g2 = [f.result(timeout=120) for f in greedy]
        v1 = volcano.result(timeout=120)
    assert g1.batch_result is g2.batch_result
    assert set(g1.batch_result.query_costs) == {q1.name, q2.name}
    assert v1.batch_result.batch_name != g1.batch_result.batch_name
    assert set(v1.batch_result.query_costs) == {q1.name}
    assert session.statistics.batches_served == 2


def test_submit_batch_is_served_by_the_session(catalog):
    session = OptimizerSession(catalog)
    with BatchScheduler(session, strategy="volcano") as sched:
        result = sched.submit_batch(composite_batch(1)).result(timeout=120)
    assert result.batch_name == "BQ1"
    assert session.statistics.batches_served == 1
    assert session.statistics.strategies_run == 1


def test_queue_wait_lands_in_the_session_registry(catalog):
    """The scheduler reports through the session's own observability
    handle — no second registry to aggregate."""
    session = OptimizerSession(catalog)
    with BatchScheduler(session, max_batch_size=2, max_delay=0.2) as sched:
        for future in [sched.submit(q) for q in batched_queries(1)]:
            future.result(timeout=120)
    series = session.obs.registry.histogram_snapshots("scheduler_queue_wait_seconds")
    assert sum(snapshot.count for snapshot in series.values()) == 2


@pytest.fixture(scope="module")
def star_world():
    # Selective joins make shared fact-dimension subexpressions worth
    # materializing, so the cache paths actually run.
    return (
        star_schema_catalog(n_dimensions=4, key_fanout=4),
        star_schema_database(seed=9, n_dimensions=4, key_fanout=4, fact_rows=600),
    )


def semantic_selection(session, result):
    """The materialized nodes by what they compute: group ids (and the labels
    that embed them) depend on which worker interned its batch first."""
    return sorted(
        (canonical_key(session.memo.signature_of(gid)), str(order))
        for gid, order in map(split_candidate, result.materialized)
    )


@pytest.mark.parametrize("strategy", ["volcano", "greedy", "marginal-greedy"])
def test_scheduled_execution_is_identical_to_a_direct_session(star_world, strategy):
    """Going through the scheduler changes where work happens, never what is
    computed: rows, costs and the materialized set are bit-identical."""
    star_catalog, star_db = star_world
    direct = OptimizerSession(star_catalog, database=star_db)
    served = OptimizerSession(star_catalog, database=star_db)
    batches = [random_star_batch(3, seed=seed, n_dimensions=4) for seed in (1, 2, 5)]
    with BatchScheduler(served, workers=2, strategy=strategy) as sched:
        futures = [sched.submit_batch(batch, execute=True) for batch in batches]
        scheduled = [f.result(timeout=300) for f in futures]
    for batch, execution in zip(batches, scheduled):
        reference = direct.execute_batch(batch, strategy=strategy)
        assert execution.rows == reference.rows
        assert execution.result.total_cost == reference.result.total_cost
        assert execution.result.query_costs == reference.result.query_costs
        assert semantic_selection(served, execution.result) == (
            semantic_selection(direct, reference.result)
        )


def test_warm_resubmission_is_served_from_the_session_caches(star_world):
    star_catalog, star_db = star_world
    session = OptimizerSession(star_catalog, database=star_db)
    batch = random_star_batch(3, seed=7, n_dimensions=4)
    with BatchScheduler(session, strategy="greedy") as sched:
        cold = sched.submit_batch(batch, execute=True).result(timeout=300)
        warm = sched.submit_batch(batch, execute=True).result(timeout=300)
    assert cold.materializations >= 1
    assert warm.rows == cold.rows
    assert warm.materializations == 0
    assert session.statistics.result_cache_hits >= 1
    assert session.statistics.batches_served == 2


def test_future_cancelled_while_queued_is_dropped_from_its_micro_batch(catalog):
    session = OptimizerSession(catalog)
    q1, q2, q3 = batched_queries(2)[:3]
    # Room for a fourth query: the collector holds the three for max_delay.
    sched = BatchScheduler(session, max_batch_size=4, max_delay=0.5, strategy="greedy")
    try:
        first, cancelled, last = [sched.submit(q) for q in (q1, q2, q3)]
        assert cancelled.cancel(), "still queued: the collector waits for companions"
        sched.flush(timeout=120)
        assert cancelled.cancelled()
        outcomes = [first.result(timeout=0), last.result(timeout=0)]
    finally:
        sched.close()
    assert outcomes[0].batch_result is outcomes[1].batch_result
    assert set(outcomes[0].batch_result.query_costs) == {q1.name, q3.name}
    assert session.statistics.batches_served == 1


def test_micro_batch_whose_every_future_was_cancelled_is_never_optimized(catalog):
    session = OptimizerSession(catalog)
    q1, q2 = batched_queries(1)
    with BatchScheduler(session, max_batch_size=4, max_delay=0.5, strategy="greedy") as sched:
        cancelled = [sched.submit(q) for q in (q1, q2)]
        assert all(f.cancel() for f in cancelled), "still queued: the collector waits"
        sched.flush(timeout=120)
        # Another strategy never rides in the cancelled micro-batch.
        served = sched.submit(q1, strategy="volcano").result(timeout=120)
    # close() joined the collector and the workers: every micro-batch has run.
    assert served.strategy == "volcano"
    assert session.statistics.batches_served == 1


def test_future_of_a_running_micro_batch_cannot_be_cancelled(catalog):
    """Once the micro-batch runs, cancel() is refused, so resolving one
    future can never raise and strand its companions."""
    session = OptimizerSession(catalog)
    entered, release = threading.Event(), threading.Event()
    optimize = session.optimize

    def gated_optimize(*args, **kwargs):
        entered.set()
        assert release.wait(timeout=120)
        return optimize(*args, **kwargs)

    session.optimize = gated_optimize
    q1, q2 = batched_queries(1)
    with BatchScheduler(session, max_batch_size=2, max_delay=0.5, strategy="greedy") as sched:
        futures = [sched.submit(q1), sched.submit(q2)]
        assert entered.wait(timeout=120)
        assert not futures[0].cancel()
        assert futures[0].running()
        release.set()
        outcomes = [f.result(timeout=120) for f in futures]
    assert [o.query_name for o in outcomes] == [q1.name, q2.name]


def test_executor_fault_fails_only_the_submitters_that_asked_for_rows(
    star_world, monkeypatch
):
    star_catalog, star_db = star_world
    session = OptimizerSession(star_catalog, database=star_db)
    q1, q2, q3 = random_star_batch(3, seed=11, n_dimensions=4)

    def broken(self, *args, **kwargs):
        raise RuntimeError("executor fault")

    with BatchScheduler(session, max_batch_size=3, max_delay=0.5, strategy="greedy") as sched:
        with monkeypatch.context() as patch:
            patch.setattr(Executor, "execute_result", broken)
            futures = [
                sched.submit(q1, execute=True),
                sched.submit(q2),
                sched.submit(q3, execute=True),
            ]
            for future in (futures[0], futures[2]):
                with pytest.raises(RuntimeError, match="executor fault"):
                    future.result(timeout=120)
            optimized = futures[1].result(timeout=120)
        assert optimized.rows is None and optimized.cost > 0
        assert set(optimized.batch_result.query_costs) == {q1.name, q2.name, q3.name}
        assert session.matcache.statistics.fills == 0
        assert session.statistics.materializations_computed == 0

        served = sched.submit(q1, execute=True).result(timeout=120)
    reference = OptimizerSession(star_catalog, database=star_db)
    assert served.rows == reference.execute(q1, strategy="greedy")
