"""``DagBuilder.intern_query``'s per-builder table of known plans.

Re-interning a plan equal to one interned before answers from the table
without normalizing, binding or expanding it again.  These tests pin that
the answer is the slow path's, that nothing a caller can observe moves (the
memo version, the session's reuse counters, the prepared batch key), that
the table dies with its builder, and that a plan whose interning raised is
never entered.
"""

import copy

import pytest

import repro.dag.build as build
from repro.algebra.logical import Query, QueryBatch
from repro.catalog.tpcd import tpcd_catalog
from repro.dag.build import DagBuilder, DagConfig
from repro.service import OptimizerSession
from repro.workloads.tpcd_queries import batched_queries


@pytest.fixture(scope="module")
def catalog():
    return tpcd_catalog(0.05)


def no_binding(monkeypatch):
    """Make any slow-path interning fail loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("a known plan was normalized and bound again")

    monkeypatch.setattr(build, "bind_block", refuse)


def test_equal_but_distinct_query_hits_without_moving_the_memo(catalog, monkeypatch):
    builder = DagBuilder(catalog)
    query = batched_queries(1)[0]
    interned = builder.intern_query(query)
    version = builder.memo.version
    twin = Query("renamed", copy.deepcopy(query.plan))
    assert twin.plan == query.plan and twin.plan is not query.plan
    no_binding(monkeypatch)
    assert builder.intern_query(twin) == interned
    assert builder.memo.version == version


def test_answers_equal_a_fresh_builders(catalog):
    """The table's answers are the slow path's: a builder that saw a plan
    before answers exactly what interning it again from scratch does."""
    queries = [q for index in (1, 2, 3) for q in batched_queries(index)]
    warm = DagBuilder(catalog)
    first = [warm.intern_query(query) for query in queries]
    cold = DagBuilder(catalog)
    for query, answer in zip(queries, first):
        cold._interned.clear()
        assert cold.intern_query(query) == answer
    assert [warm.intern_query(query) for query in reversed(queries)] == first[::-1]
    assert warm.memo.version == cold.memo.version


def test_a_plan_whose_interning_raised_is_not_cached(catalog):
    builder = DagBuilder(catalog, DagConfig(max_block_sources=2))
    query = batched_queries(1)[0]
    for _ in range(2):
        with pytest.raises(ValueError, match="exceeds the configured maximum"):
            builder.intern_query(query)
        assert builder._interned == {}


def test_reset_drops_the_table(catalog):
    session = OptimizerSession(catalog)
    session.prepare(QueryBatch("b", tuple(batched_queries(1))))
    builder = session._builder
    assert len(builder._interned) == 2
    session.reset()
    assert session._builder is not builder
    assert session._builder._interned == {}


def slow_path(monkeypatch):
    """Every interning goes the slow way, as before the table existed."""
    intern = DagBuilder.intern_query

    def uncached(self, query):
        self._interned.clear()
        return intern(self, query)

    monkeypatch.setattr(DagBuilder, "intern_query", uncached)


def serve(catalog):
    """Prepare a known batch, a batch mixing known and new queries, and
    the known one again; return the keys and the session counters."""
    known = batched_queries(1)
    new = batched_queries(2)[2:]
    session = OptimizerSession(catalog)
    batches = [
        QueryBatch("known", tuple(known)),
        QueryBatch("mixed", (known[1], new[0], Query("twin", known[0].plan), new[1])),
        QueryBatch("again", tuple(known)),
    ]
    keys = [session.prepare(batch).key for batch in batches]
    stats = session.statistics_snapshot()
    counters = {
        name: stats[name]
        for name in ("queries_interned", "queries_reused", "batch_cache_hits", "batches_prepared")
    }
    return keys, counters, session.memo.version


def test_session_counters_and_batch_keys_match_the_slow_path(catalog, monkeypatch):
    fast = serve(catalog)
    slow_path(monkeypatch)
    assert serve(catalog) == fast
    keys, counters, _ = fast
    assert keys[0] == keys[2] != keys[1]
    assert counters["queries_reused"] == 2 + 2  # the mixed batch's known pair, then "again"
    assert counters["batch_cache_hits"] == 1
