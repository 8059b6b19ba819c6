"""Tests for the materialization-cache eviction policies."""

import pytest

from repro.adaptive import BenefitAwarePolicy, CostLRUPolicy, FeedbackStatsStore
from repro.service.matcache import MaterializationCache, estimate_rows_bytes


def fill_rows(n, payload="x" * 40):
    return [{"id": i, "payload": payload} for i in range(n)]


KEY_A = ("spj(a)", "any")
KEY_B = ("spj(b)", "any")
KEY_C = ("spj(c)", "any")


class TestCostLRUPolicy:
    def test_score_matches_the_legacy_formula(self):
        policy = CostLRUPolicy()

        class Entry:
            cost, hits, bytes = 10.0, 3, 5

        assert policy.score(KEY_A, Entry, clock=99) == 10.0 * 4 / 5

    def test_default_cache_eviction_behaviour_is_unchanged(self):
        """Expensive-per-byte entries survive, exactly as before policies."""
        rows = fill_rows(4)
        size = estimate_rows_bytes(rows)
        cache = MaterializationCache(max_bytes=2 * size + size // 2)
        cache.put(KEY_A, rows, cost=100.0)
        cache.put(KEY_B, rows, cost=1.0)
        cache.put(KEY_C, rows, cost=50.0)  # evicts the cheapest: B
        assert KEY_A in cache and KEY_C in cache
        assert KEY_B not in cache
        assert cache.statistics.evictions == 1


class TestBenefitAwarePolicy:
    def test_measured_benefit_overrides_estimated_cost(self):
        """An entry with tiny *estimated* cost but large *measured*
        recomputation time outlives one the optimizer guessed expensive."""
        store = FeedbackStatsStore()
        store.record(KEY_A[0], rows=4, bytes=100, elapsed=5.0)   # measured slow
        store.record(KEY_B[0], rows=4, bytes=100, elapsed=0.001)  # measured fast
        rows = fill_rows(4)
        size = estimate_rows_bytes(rows)
        cache = MaterializationCache(
            max_bytes=2 * size + size // 2, policy=BenefitAwarePolicy(store)
        )
        cache.put(KEY_A, rows, cost=1.0)      # estimated cheap, measured slow
        cache.put(KEY_B, rows, cost=1000.0)   # estimated dear, measured fast
        cache.put(KEY_C, rows, cost=500.0)    # unmeasured: cost fallback
        assert KEY_A in cache, "measured 5s of recomputation must be kept"
        assert KEY_B not in cache, "measured 1ms of recomputation goes first"

    def test_unmeasured_entries_fall_back_to_cost_lru(self):
        store = FeedbackStatsStore()
        policy = BenefitAwarePolicy(store)

        class Entry:
            cost, hits, bytes, last_used = 10.0, 0, 5, 0

        assert policy.score(KEY_A, Entry, clock=0) == CostLRUPolicy().score(
            KEY_A, Entry, clock=0
        )

    def test_recency_decays_the_score(self):
        store = FeedbackStatsStore()
        store.record(KEY_A[0], rows=4, bytes=100, elapsed=1.0)
        policy = BenefitAwarePolicy(store, recency_half_life=4.0)

        class Entry:
            cost, hits, bytes, last_used = 0.0, 0, 100, 10

        fresh = policy.score(KEY_A, Entry, clock=10)
        stale = policy.score(KEY_A, Entry, clock=18)  # 8 ticks = 2 half-lives
        assert stale == pytest.approx(fresh / 4.0)

    def test_bad_parameters_raise(self):
        with pytest.raises(ValueError):
            BenefitAwarePolicy(FeedbackStatsStore(), recency_half_life=0.0)
