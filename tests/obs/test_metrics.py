"""Metrics layer: counters, histograms, registry, statistics views."""

import bisect
import json
import math
import random
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    HistogramSnapshot,
    MetricsRegistry,
    Observability,
    StatisticsView,
    metric_field,
    normalize_labels,
)
from repro.obs.metrics import Histogram


# ---------------------------------------------------------------- labels


def test_normalize_labels_sorts_and_stringifies():
    assert normalize_labels(None) == ()
    assert normalize_labels({}) == ()
    assert normalize_labels({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))
    assert normalize_labels([("b", 2), ("a", "x")]) == (("a", "x"), ("b", "2"))


# ------------------------------------------------------------- histogram


def test_bucket_assignment_is_lower_exclusive_upper_inclusive():
    h = Histogram("x", buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
        h.observe(value)
    snap = h.snapshot()
    # (−inf,1]: 0.5, 1.0 — (1,2]: 1.5, 2.0 — (2,4]: 3.0, 4.0 — overflow: 5.0
    assert snap.counts == (2, 2, 2, 1)
    assert snap.count == 7
    assert snap.sum == pytest.approx(17.0)


def test_bucket_bounds_validation():
    with pytest.raises(ValueError):
        Histogram("x", buckets=())
    with pytest.raises(ValueError):
        Histogram("x", buckets=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Histogram("x", buckets=(2.0, 1.0))


def test_empty_histogram_percentiles_are_none():
    snap = Histogram("x").snapshot()
    assert snap.count == 0
    assert snap.mean is None
    assert snap.p50 is None and snap.p95 is None and snap.p99 is None
    with pytest.raises(ValueError):
        snap.percentile(1.5)


def test_single_bucket_percentile_interpolates_within_bucket():
    h = Histogram("x", buckets=(1.0, 2.0, 4.0))
    for _ in range(10):
        h.observe(1.5)  # all land in (1, 2]
    snap = h.snapshot()
    for q in (0.01, 0.5, 0.95, 0.99, 1.0):
        value = snap.percentile(q)
        assert 1.0 < value <= 2.0, (q, value)


def test_overflow_observations_clamp_to_last_bound():
    h = Histogram("x")
    for _ in range(100):
        h.observe(60.0)  # above the 10 s top bound
    snap = h.snapshot()
    assert snap.p50 == snap.p99 == DEFAULT_LATENCY_BUCKETS[-1]


def test_percentiles_are_monotone_and_bucket_accurate():
    """Property test: against sorted truth, every percentile must fall in
    the bucket that contains the true quantile, and be monotone in q."""
    rng = random.Random(7)
    for trial in range(20):
        values = [rng.uniform(1e-7, 20.0) for _ in range(rng.randrange(1, 400))]
        h = Histogram("x")
        for value in values:
            h.observe(value)
        snap = h.snapshot()
        ordered = sorted(min(v, DEFAULT_LATENCY_BUCKETS[-1]) for v in values)
        previous = 0.0
        for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0):
            estimate = snap.percentile(q)
            assert estimate >= previous, "percentiles must be monotone in q"
            previous = estimate
            # Nearest-rank truth, the convention the bucket walk implements:
            # the observation at rank ceil(q * n) (1-based).
            rank = max(1, math.ceil(q * len(ordered)))
            truth = ordered[rank - 1]
            # The estimate interpolates inside the truth's bucket; at
            # fraction 0 it returns the bucket's lower bound, which bisects
            # into the bucket below — hence the ±1 tolerance.
            truth_bucket = bisect.bisect_left(DEFAULT_LATENCY_BUCKETS, truth)
            est_bucket = bisect.bisect_left(DEFAULT_LATENCY_BUCKETS, estimate)
            assert abs(est_bucket - truth_bucket) <= 1, (
                trial,
                q,
                truth,
                estimate,
            )


def test_merge_equals_concatenated_observations():
    rng = random.Random(13)
    a, b = Histogram("x"), Histogram("x")
    both = Histogram("x")
    for h in (a, b):
        for _ in range(200):
            value = rng.uniform(0, 12)
            h.observe(value)
            both.observe(value)
    merged = HistogramSnapshot.merge([a.snapshot(), b.snapshot()])
    reference = both.snapshot()
    assert merged.counts == reference.counts
    assert merged.count == reference.count
    assert merged.sum == pytest.approx(reference.sum)
    assert merged.p95 == reference.p95


def test_merge_rejects_mismatched_bounds_and_handles_empty():
    with pytest.raises(ValueError):
        HistogramSnapshot.merge(
            [Histogram("x", buckets=(1.0,)).snapshot(), Histogram("x").snapshot()]
        )
    empty = HistogramSnapshot.merge([])
    assert empty.count == 0 and empty.p50 is None


def test_histogram_observe_is_thread_safe():
    h = Histogram("x")
    threads = [
        threading.Thread(target=lambda: [h.observe(0.001) for _ in range(1000)])
        for _ in range(8)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert h.count == 8000
    assert h.snapshot().sum == pytest.approx(8.0)


# -------------------------------------------------------------- registry


def test_registry_returns_same_object_per_identity():
    registry = MetricsRegistry()
    a = registry.counter("hits", {"shard": 1})
    assert registry.counter("hits", [("shard", "1")]) is a
    assert registry.counter("hits", {"shard": 2}) is not a


def test_registry_shares_series_while_other_threads_create_and_read():
    registry = MetricsRegistry()
    barrier = threading.Barrier(4)
    seen = [[] for _ in range(4)]
    errors = []

    def creator(index):
        try:
            barrier.wait(timeout=10)
            for i in range(200):
                seen[index].append(registry.counter("c", {"n": i % 50}))
                registry.snapshot()  # reads the series others are adding
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=creator, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert errors == []
    assert len(registry.metrics()) == 50
    assert all(a is b for a, b in zip(seen[0], seen[3]))


def test_registry_binds_each_name_to_one_kind():
    registry = MetricsRegistry()
    registry.histogram("latency")
    with pytest.raises(ValueError):
        registry.counter("latency")
    with pytest.raises(ValueError):
        registry.gauge("latency", {"shard": 0})  # other labels, same name


def test_registry_snapshot_is_json_able_and_keyed_by_series():
    registry = MetricsRegistry()
    registry.counter("hits", {"shard": 0}).inc(3)
    registry.gauge("depth").set(2.5)
    registry.histogram("latency").observe(0.004)
    snap = registry.snapshot()
    assert snap["counters"] == {"hits{shard=0}": 3}
    assert snap["gauges"] == {"depth": 2.5}
    assert snap["histograms"]["latency"]["count"] == 1
    json.dumps(snap)  # must not raise


def test_histogram_snapshots_by_name():
    registry = MetricsRegistry()
    registry.histogram("latency", {"shard": 0}).observe(0.001)
    registry.histogram("latency", {"shard": 1}).observe(0.002)
    registry.counter("hits").inc()
    series = registry.histogram_snapshots("latency")
    assert set(series) == {(("shard", "0"),), (("shard", "1"),)}
    assert all(s.count == 1 for s in series.values())
    assert registry.histogram_snapshots("absent") == {}


def test_prometheus_exposition_format():
    registry = MetricsRegistry()
    registry.counter("hits", {"shard": 0}).inc(3)
    registry.histogram("latency", buckets=(0.1, 1.0)).observe(0.05)
    registry.histogram("latency", buckets=(0.1, 1.0)).observe(5.0)
    text = registry.render_prometheus()
    lines = text.splitlines()
    assert "# TYPE hits counter" in lines
    assert 'hits{shard="0"} 3' in lines
    assert "# TYPE latency histogram" in lines
    assert 'latency_bucket{le="0.1"} 1' in lines
    assert 'latency_bucket{le="1"} 1' in lines  # cumulative: 5.0 is overflow
    assert 'latency_bucket{le="+Inf"} 2' in lines
    assert "latency_sum 5.05" in lines
    assert "latency_count 2" in lines
    assert text.endswith("\n")


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("hits", {"q": 'a"b\\c\nd'}).inc()
    text = registry.render_prometheus()
    assert 'q="a\\"b\\\\c\\nd"' in text


# ------------------------------------------------------ statistics views


class _DemoStats(StatisticsView):
    _prefix = "demo_"
    hits = metric_field()
    misses = metric_field()


class _DemoSubStats(_DemoStats):
    spills = metric_field()


def test_view_fields_read_and_write_like_plain_ints():
    stats = _DemoStats()
    assert stats.hits == 0
    stats.hits += 2
    stats.misses = 5
    assert stats.as_dict() == {"hits": 2, "misses": 5}
    assert "hits=2" in repr(stats)


def test_view_field_names_are_mro_ordered_and_inherited():
    assert _DemoStats.field_names() == ("hits", "misses")
    assert _DemoSubStats.field_names() == ("hits", "misses", "spills")


def test_view_over_shared_registry_aliases_the_series():
    registry = MetricsRegistry()
    stats = _DemoStats(registry, labels={"shard": 3})
    stats.hits += 4
    assert registry.counter("demo_hits", {"shard": 3}).value == 4
    # A second view over the same identity shares the very same counters.
    twin = _DemoStats(registry, labels={"shard": 3})
    twin.hits += 1
    assert stats.hits == 5


def test_subclass_view_shares_base_series_with_base_view():
    registry = MetricsRegistry()
    base = _DemoStats(registry)
    sub = _DemoSubStats(registry)
    sub.hits += 7
    assert base.hits == 7  # same registry series, inherited field


def test_view_equality():
    a, b = _DemoStats(), _DemoStats()
    a.hits, b.hits, b.misses = 1, 2, 3
    assert a == a and a != b
    assert _DemoStats() != _DemoSubStats()  # type-strict
    assert (_DemoStats() == object()) is False


# --------------------------------------------------------- observability


def test_observability_observe_latency_registers_labeled_histogram():
    obs = Observability()
    obs.observe_latency("latency", 0.25, strategy="greedy")
    series = obs.registry.histogram_snapshots("latency")
    assert list(series) == [(("strategy", "greedy"),)]
    assert series[(("strategy", "greedy"),)].count == 1
