"""Eviction policies for the materialization cache.

The serving layer's :class:`~repro.service.matcache.MaterializationCache`
historically scored entries by *estimated* recomputation cost — the same
static numbers the optimizer guessed with.  The policies here make that
decision pluggable:

* :class:`CostLRUPolicy` reproduces the original behaviour exactly
  (estimated cost × popularity ÷ bytes, least-recently-used tie-break), and
* :class:`BenefitAwarePolicy` replaces the guess with *measured* benefit
  from the :class:`~repro.adaptive.stats.FeedbackStatsStore`: entries are
  scored by observed recomputation seconds × hit recency ÷ observed bytes,
  so the cache keeps the row sets that demonstrably save the most wall
  time per byte.

A policy sees the cache's private entry records; it must treat them as
read-only.

Layering note: :mod:`repro.service.matcache` imports this module for its
default policy, so nothing here may import from :mod:`repro.service` (keys
are accepted as opaque hashables for exactly this reason) — the dependency
between the packages must stay one-way.
"""

from __future__ import annotations

from typing import Hashable, Optional, Protocol

from .stats import FeedbackStatsStore, ObservedStats

__all__ = ["BenefitAwarePolicy", "CachePolicy", "CostLRUPolicy"]


def _fingerprint_of(key: Hashable) -> str:
    """The canonical-fingerprint component of a cache key.

    The materialization cache keys on ``(canonical fingerprint, stored
    order)``; the feedback store keys on the fingerprint alone (all stored
    orders of one logical result share its runtime statistics).
    """
    if isinstance(key, tuple) and key:
        return str(key[0])
    return str(key)


class CachePolicy(Protocol):
    """Decides what the materialization cache evicts first."""

    def score(self, key: Hashable, entry, clock: int) -> float:
        """Retention score of a cached entry; the lowest score is evicted
        first (ties broken least-recently-used by the cache)."""
        ...  # pragma: no cover


class CostLRUPolicy:
    """The original estimated-cost policy: keep what is expensive per byte.

    ``score = estimated recompute cost × (1 + hits) / bytes`` — identical to
    the formula the cache used before policies became pluggable, so a cache
    constructed with the default policy behaves bit-for-bit the same.
    """

    def score(self, key: Hashable, entry, clock: int) -> float:
        return entry.cost * (1.0 + entry.hits) / max(entry.bytes, 1)


class BenefitAwarePolicy:
    """Score entries by measured benefit instead of estimated cost.

    ``score = observed recompute seconds × (1 + hits) × recency / bytes``
    where recency halves every ``recency_half_life`` cache operations since
    the entry's last use — an entry that saved a lot of measured wall time,
    is popular, was used recently and is small is kept longest.  Entries the
    store has no timing for fall back to ``fallback`` (default:
    :class:`CostLRUPolicy`), so a cold store degrades gracefully to the
    estimated-cost behaviour.

    Args:
        store: the feedback store supplying observed timings and byte sizes.
        fallback: policy used for entries without observed timings.
        recency_half_life: cache-clock ticks after which an unused entry's
            recency factor halves.
    """

    def __init__(
        self,
        store: FeedbackStatsStore,
        *,
        fallback: Optional[CachePolicy] = None,
        recency_half_life: float = 16.0,
    ):
        if recency_half_life <= 0.0:
            raise ValueError("recency_half_life must be positive")
        self.store = store
        self.fallback = fallback if fallback is not None else CostLRUPolicy()
        self.recency_half_life = recency_half_life

    def _observed(self, key: Hashable) -> Optional[ObservedStats]:
        entry = self.store.get(_fingerprint_of(key))
        if entry is None or entry.elapsed <= 0.0:
            return None
        return entry

    def score(self, key: Hashable, entry, clock: int) -> float:
        observed = self._observed(key)
        if observed is None:
            return self.fallback.score(key, entry, clock)
        age = max(clock - entry.last_used, 0)
        recency = 0.5 ** (age / self.recency_half_life)
        size = observed.bytes if observed.bytes > 0 else entry.bytes
        return observed.elapsed * (1.0 + entry.hits) * recency / max(size, 1.0)
