"""End-to-end tracing through the serving stack.

Covers the propagation story the observability layer promises: one trace
ID per request from scheduler submit through the session, optimizer
phases, executor backend and cache events — across worker threads — plus
the behavioural guarantees (tracing changes no rows
and no counters; a warm batch traces zero fills; backends emit the same
span shape).
"""

from collections import Counter as TallyCounter

import pytest

from repro.catalog.tpcd import tpcd_catalog
from repro.execution import tiny_tpcd_database
from repro.obs import InMemorySink, Observability, Tracer
from repro.service import BatchScheduler, OptimizerSession
from repro.workloads.batches import composite_batch
from repro.workloads.tpcd_queries import batched_queries
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(0.05)


def traced_session(catalog, **kwargs):
    tracer = Tracer(InMemorySink())
    session = OptimizerSession(
        catalog, obs=Observability(tracer=tracer), **kwargs
    )
    return session, tracer


def events(records, name=None):
    out = []
    for record in records:
        for event in record.get("events", ()):
            if name is None or event["name"] == name:
                out.append((record["trace"], event))
    return out


def test_cold_then_warm_batch_traces(catalog):
    session, tracer = traced_session(catalog)
    session.attach_database(tiny_tpcd_database(seed=5, orders=80))
    cold = session.execute_batch(composite_batch(1))
    warm = session.execute_batch(composite_batch(1))
    assert warm.rows == cold.rows and warm.materializations == 0

    records = tracer.sink.records
    roots = [r for r in records if r["name"] == "session.execute_batch"]
    assert len(roots) == 2
    cold_trace, warm_trace = roots[0]["trace"], roots[1]["trace"]
    assert cold_trace != warm_trace

    by_trace = {}
    for record in records:
        by_trace.setdefault(record["trace"], []).append(record["name"])
    for trace in (cold_trace, warm_trace):
        names = set(by_trace[trace])
        assert {
            "session.execute_batch",
            "session.optimize",
            "session.execute",
            "execute.plan_node",
        } <= names
    # Only the cold trace interned and materialized anything.
    assert "optimize.intern" in by_trace[cold_trace]
    fills = events(records, "matcache.fill")
    assert fills and all(trace == cold_trace for trace, _ in fills)
    hits = events(records, "matcache.hit")
    assert any(trace == warm_trace for trace, _ in hits)
    # The warm optimize is a result-cache hit, flagged as an event.
    cache_hits = events(records, "session.result_cache_hit")
    assert [trace for trace, _ in cache_hits] == [warm_trace]


def test_tracing_changes_no_rows_and_no_counters(catalog):
    quiet = OptimizerSession(catalog)
    loud, tracer = traced_session(catalog)
    for session in (quiet, loud):
        session.attach_database(tiny_tpcd_database(seed=5, orders=80))
    for session in (quiet, loud):
        session.execute_batch(composite_batch(1))
        final = session.execute_batch(composite_batch(1))
        session.rows = final.rows
    assert loud.rows == quiet.rows
    assert loud.statistics.as_dict() == quiet.statistics.as_dict()
    assert loud.matcache.statistics.as_dict() == quiet.matcache.statistics.as_dict()
    assert tracer.sink.records, "the traced twin must actually have traced"


def test_scheduler_submissions_propagate_trace_ids_across_workers(catalog):
    session, tracer = traced_session(catalog)
    queries = batched_queries(1)  # Q3a, Q3b
    with BatchScheduler(
        session, max_batch_size=2, max_delay=0.2, strategy="greedy"
    ) as scheduler:
        futures = [scheduler.submit(query) for query in queries]
        for future in futures:
            future.result(timeout=120)

    records = tracer.sink.records
    micro = [r for r in records if r["name"] == "scheduler.micro_batch"]
    links = [r for r in records if r["name"] == "scheduler.query"]
    assert micro, "served micro-batches must be traced"
    # Every submission's trace is accounted for: as a micro-batch head or
    # as a companion link span pointing at the head it rode with.
    head_traces = {r["trace"] for r in micro}
    covered = set(head_traces)
    for link in links:
        assert link["attrs"]["rode_with"] in head_traces
        covered.add(link["trace"])
    assert len(covered) == len(queries)
    # Cross-thread propagation: the worker-side session spans file under
    # the submit-time trace, and the head span lists its companions.
    by_trace = {}
    for record in records:
        by_trace.setdefault(record["trace"], set()).add(record["name"])
    for trace in head_traces:
        assert "session.optimize" in by_trace[trace]
    for head in micro:
        assert head["attrs"]["queries"] >= 1
        member_traces = head["attrs"]["member_traces"]
        assert set(member_traces) == {r["trace"] for r in links if r["attrs"]["rode_with"] == head["trace"]}


def test_concurrent_batch_submissions_get_one_trace_each():
    catalog = star_schema_catalog(n_dimensions=4)
    database = star_schema_database(seed=9, n_dimensions=4)
    tracer = Tracer(InMemorySink())
    session = OptimizerSession(
        catalog,
        database=database,
        obs=Observability(tracer=tracer),
    )
    traffic = [
        random_star_batch(2, seed=seed, n_dimensions=4) for seed in range(6)
    ]
    with BatchScheduler(session, workers=4, strategy="greedy") as scheduler:
        futures = [
            scheduler.submit_batch(batch, execute=True) for batch in traffic
        ]
        for future in futures:
            future.result(timeout=120)

    by_trace = {}
    for record in tracer.sink.records:
        by_trace.setdefault(record["trace"], set()).add(record["name"])
    served = [
        names
        for names in by_trace.values()
        if "session.execute_batch" in names
    ]
    assert len(served) == len(traffic)  # one trace per submission
    for names in served:
        assert {"session.optimize", "session.execute"} <= names

    # Every execution landed in the session's one latency series.
    series = session.obs.registry.histogram_snapshots("session_execute_seconds")
    assert [dict(labels) for labels in series] == [{"strategy": "greedy"}]
    assert sum(s.count for s in series.values()) == len(traffic)


def test_concurrent_query_submissions_are_each_traced_once():
    """Micro-batched queries from several threads through one session:
    every submission's trace is a micro-batch head or a link to one."""
    catalog = star_schema_catalog(n_dimensions=4)
    database = star_schema_database(seed=9, n_dimensions=4)
    tracer = Tracer(InMemorySink())
    session = OptimizerSession(
        catalog, database=database, obs=Observability(tracer=tracer)
    )
    queries = [
        query
        for seed in range(3)
        for query in random_star_batch(2, seed=seed, n_dimensions=4)
    ]
    with BatchScheduler(
        session, max_batch_size=3, max_delay=0.05, workers=4, strategy="greedy"
    ) as scheduler:
        futures = [scheduler.submit(query, execute=True) for query in queries]
        for future in futures:
            assert future.result(timeout=120).rows is not None

    records = tracer.sink.records
    heads = {r["trace"] for r in records if r["name"] == "scheduler.micro_batch"}
    links = [r for r in records if r["name"] == "scheduler.query"]
    assert all(link["attrs"]["rode_with"] in heads for link in links)
    assert len(heads) + len(links) == len(queries)
    assert len(heads | {link["trace"] for link in links}) == len(queries)
    series = session.obs.registry.histogram_snapshots("scheduler_queue_wait_seconds")
    assert sum(s.count for s in series.values()) == len(queries)


@pytest.mark.parametrize("backend", ["row", "columnar", "sqlite"])
def test_backends_emit_the_same_span_shape(catalog, backend):
    """Span parity: the trace of a batch is backend-invariant (modulo the
    SQL engine's own table-load span)."""

    def shape(executor):
        session, tracer = traced_session(catalog, executor=executor)
        session.attach_database(tiny_tpcd_database(seed=5, orders=60))
        session.execute_batch(composite_batch(1))
        session.execute_batch(composite_batch(1))
        names = TallyCounter(
            r["name"]
            for r in tracer.sink.records
            if r["name"] != "sql.load_tables"
        )
        event_names = TallyCounter(
            event["name"] for _, event in events(tracer.sink.records)
        )
        return names, event_names

    assert shape(backend) == shape("row")
