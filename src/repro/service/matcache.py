"""The cross-batch materialization cache of the serving layer.

When an :class:`~repro.service.session.OptimizerSession` executes a batch,
the consolidated plan materializes shared subexpressions and the queries
read them back.  Those materialized row sets are exactly as reusable across
batches as the optimizer state is: a later batch (or the same batch again)
whose plan materializes the *same logical result* can skip the computation
entirely.  The :class:`MaterializationCache` stores materialized node
results keyed by the memo's **semantic fingerprint**
(:func:`~repro.dag.fingerprint.canonical_key`) plus the stored sort order —
never by memo group id, which is interning-order dependent — so one cache
serves every batch of a session, and would even survive a session rebuild.

An entry holds one form: the
:class:`~repro.execution.columnar.batch.ColumnBatch` the executors hand
:meth:`~MaterializationCache.put_batch` (and the disk tier faults in).
:meth:`~MaterializationCache.put` and :meth:`~MaterializationCache.get` are
the row edge — rows are transposed into a batch on the way in, and a read
hands out fresh row dicts — while ``get_batch`` serves the shared batch.
Hit, miss and fault accounting is one code path (``_hit_locked``).

The cache does byte-size accounting (a deterministic per-row estimate,
computed once per entry at fill),
policy-driven eviction, and token-based invalidation: the
session stamps every fill with the database's
:attr:`~repro.execution.data.Database.version`, and a fill whose token no
longer matches the cache's current token is rejected — a slow execution
racing a data change can never reinstate stale rows.  The default policy is
the original cost-aware LRU (entries that are cheap to recompute per byte
go first, :class:`~repro.adaptive.policy.CostLRUPolicy`); an adaptive
session swaps in the benefit-aware policy scored from *measured*
recomputation times (:class:`~repro.adaptive.policy.BenefitAwarePolicy`).

All operations are thread-safe (the scheduler executes through one shared
session from a pool of workers).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..adaptive.policy import CachePolicy, CostLRUPolicy
from ..algebra.properties import SortOrder
from ..dag.fingerprint import Signature, canonical_key
from ..execution.columnar.batch import ColumnBatch
from ..obs import Observability, StatisticsView, metric_field

__all__ = [
    "CacheStatistics",
    "MaterializationCache",
    "cache_key",
    "estimate_batch_bytes",
    "estimate_rows_bytes",
]

Row = Dict[str, object]

#: A cache key: (canonical fingerprint text, stored sort order text).
CacheKey = Tuple[str, str]


def cache_key(signature: Signature, order: Optional[SortOrder] = None) -> CacheKey:
    """The cache key for a materialized node: fingerprint + stored order."""
    return (canonical_key(signature), str(order) if order is not None else "any")


def _value_bytes(value: object) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        # Encoded length, not len(): a character count undercounts non-ASCII
        # payloads against the documented byte accounting.
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    return len(str(value).encode("utf-8"))


def estimate_rows_bytes(rows: Iterable[Row]) -> int:
    """A deterministic byte-size estimate of a materialized row set.

    Per row a fixed dict overhead plus key and value payloads; the point is
    not accuracy but a stable, reproducible accounting basis for the
    eviction policy and its tests.
    """
    total = 0
    for row in rows:
        total += 64
        for key, value in row.items():
            total += len(key.encode("utf-8")) + _value_bytes(value)
    return total


#: Value types whose accounted size does not depend on the value.
_FIXED_BYTES = {type(None): 1, bool: 1, int: 8, float: 8}


def estimate_batch_bytes(batch: ColumnBatch) -> int:
    """Exactly ``estimate_rows_bytes(batch.to_rows())``, sized per column.

    A column whose present values share one plain type is sized without
    visiting them one by one (fixed-width types by count, strings by one
    join + encode); anything else falls back to the per-value walk.  Only
    a masked column's types are read value by value (its kind counts absent
    cells)."""
    total = 64 * batch.length
    for name, values in batch.columns.items():
        mask = batch.masks.get(name)
        if mask is None:
            kinds = batch.kind(name)
        else:
            values = list(compress(values, mask))  # an absent cell is no key
            kinds = frozenset(map(type, values))
        total += len(name.encode("utf-8")) * len(values)
        kind = next(iter(kinds)) if len(kinds) == 1 else None
        if kind in _FIXED_BYTES:
            total += _FIXED_BYTES[kind] * len(values)
        elif kind is str:
            total += len("".join(values).encode("utf-8"))
        else:
            total += sum(map(_value_bytes, values))
    return total


class CacheStatistics(StatisticsView):
    """Counters describing how the cache served its traffic.

    A live view over a :class:`~repro.obs.MetricsRegistry` (series
    ``matcache_hits``, ``matcache_misses``, ...); every field keeps the
    exact name and semantics of the former dataclass.
    """

    _prefix = "matcache_"

    hits = metric_field()
    misses = metric_field()
    fills = metric_field()
    rejected_fills = metric_field()
    evictions = metric_field()
    invalidations = metric_field()


@dataclass
class _Entry:
    """One cached result.  ``batch`` is immutable once stored — a refill
    builds a new ``_Entry`` — and ``bytes`` is computed once, at fill."""

    batch: ColumnBatch
    bytes: int
    cost: float
    hits: int = 0
    last_used: int = 0


class MaterializationCache:
    """Materialized node results shared across the batches of a session.

    Args:
        max_bytes: capacity of the cache in (estimated) bytes.
        max_entries: upper bound on the number of cached row sets.
        policy: the eviction policy; the default
            :class:`~repro.adaptive.policy.CostLRUPolicy` keeps the entry
            with the lowest ``recompute-cost × (1 + hits) / bytes`` score
            shortest (ties broken least-recently-used), i.e. the cache
            prefers rows that are expensive to recompute, popular, and
            small — the behaviour of earlier releases, bit for bit.

    Rows are transposed in on :meth:`put` and copied out on :meth:`get`, so
    a caller can never corrupt cached rows by mutating what it was handed
    (the row executor merges row dicts in place while joining).
    """

    def __init__(
        self,
        *,
        max_bytes: int = 64 * 1024 * 1024,
        max_entries: int = 256,
        policy: Optional[CachePolicy] = None,
        obs: Optional[Observability] = None,
    ):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.policy: CachePolicy = policy if policy is not None else CostLRUPolicy()
        self.obs = obs if obs is not None else Observability()
        self._tracer = self.obs.tracer
        self.statistics = CacheStatistics(self.obs.registry, labels=self.obs.labels)
        self._lock = threading.RLock()
        self._entries: Dict[CacheKey, _Entry] = {}
        self._bytes = 0
        self._clock = 0
        self._token: Optional[Hashable] = None

    # ----------------------------------------------------------------- state

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._bytes

    @property
    def token(self) -> Optional[Hashable]:
        with self._lock:
            return self._token

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Tuple[CacheKey, ...]:
        with self._lock:
            return tuple(self._entries)

    def statistics_snapshot(self) -> Dict[str, int]:
        """A *consistent* copy of the statistics counters.

        Taken under the cache lock, so a reader can never observe a torn
        multi-counter state (e.g. a fill counted whose eviction is not) the
        way reading ``self.statistics`` field-by-field mid-operation can.
        """
        with self._lock:
            return self.statistics.as_dict()

    # ------------------------------------------------------------ invalidation

    def invalidate(self) -> int:
        """Drop every entry (e.g. after a catalog or data change); returns count."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            if dropped:
                self.statistics.invalidations += 1
                if self._tracer.enabled:
                    self._tracer.event("matcache.invalidate", dropped=dropped)
            return dropped

    def ensure_token(self, token: Hashable) -> bool:
        """Bind the cache to a data-version token, invalidating on change.

        Returns True when the token changed (and the cache was flushed).
        The first call merely adopts the token.
        """
        with self._lock:
            if self._token is None:
                self._token = token
                return False
            if self._token == token:
                return False
            self.invalidate()
            self._token = token
            return True

    # ------------------------------------------------------------------ get/put

    def get(self, key: CacheKey) -> Optional[List[Row]]:
        """The cached rows for a key (a fresh copy), or None on a miss."""
        with self._lock:
            entry = self._hit_locked(key)
            return None if entry is None else entry.batch.to_rows()

    def get_batch(self, key: CacheKey) -> Optional[ColumnBatch]:
        """The cached :class:`~repro.execution.columnar.batch.ColumnBatch`,
        or None on a miss.

        Hit/miss/fault accounting is exactly :meth:`get`'s.  Callers get the
        stored batch itself, shared and immutable by convention (no executor
        mutates received columns).  The key index a columnar read attaches
        to the served batch
        (:meth:`~repro.execution.columnar.batch.ColumnBatch.indexed`) is
        never accounted in :attr:`current_bytes` and dies with the entry.
        """
        with self._lock:
            entry = self._hit_locked(key)
            return None if entry is None else entry.batch

    def _hit_locked(self, key: CacheKey) -> Optional[_Entry]:
        """The entry serving ``key``, with the hit / miss / fault counted.

        A hot-tier miss asks :meth:`_fault_locked` for the entry; a faulted
        entry is promoted as it is (no admission, no fill count, the size it
        was filled at) unless it no longer fits the hot tier, in which case
        it is served this once from disk.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._clock += 1
            entry.hits += 1
            entry.last_used = self._clock
            self.statistics.hits += 1
            if self._tracer.enabled:
                self._tracer.event("matcache.hit", key=key[0][:16], order=key[1])
            return entry
        entry = self._fault_locked(key)
        if entry is None:
            self.statistics.misses += 1
            if self._tracer.enabled:
                self._tracer.event("matcache.miss", key=key[0][:16], order=key[1])
            return None
        # A fault is still a hit of the (two-level) cache.
        self._clock += 1
        self.statistics.hits += 1
        if entry.bytes <= self.max_bytes:
            self._store_locked(key, entry)
        return entry

    def _fault_locked(self, key: CacheKey) -> Optional[_Entry]:
        """Hook: an entry for ``key`` from a tier below the hot one.

        The memory tier has none; the disk tier
        (:class:`~repro.storage.spill.SpillingMaterializationCache`) decodes
        the key's spill file into the entry to promote.
        """
        return None

    def put(
        self,
        key: CacheKey,
        rows: List[Row],
        *,
        cost: float = 0.0,
        token: Optional[Hashable] = None,
    ) -> bool:
        """Store one materialized row set; returns False if the fill was rejected.

        A fill is rejected when its ``token`` no longer matches the cache's
        current token (the data changed while the rows were being computed)
        or when the row set alone exceeds the cache capacity.
        """
        # Size the transposed copy, not the caller's list: the row executor
        # merges row dicts in place, so a concurrent writer could mutate
        # `rows` after the transpose, and sizing `rows` could then store a
        # byte count that disagrees with the rows actually kept.
        batch = ColumnBatch.from_rows(rows)
        return self._fill(key, batch, estimate_batch_bytes(batch), cost, token)

    def put_batch(
        self,
        key: CacheKey,
        batch: ColumnBatch,
        *,
        cost: float = 0.0,
        token: Optional[Hashable] = None,
    ) -> bool:
        """:meth:`put` for an executor's ``ColumnBatch``.

        Same checks and counters; the batch is kept as handed in (shared and
        immutable by convention, like what :meth:`get_batch` returns) and
        accounted at exactly the size :meth:`put` would give its rows.
        """
        return self._fill(key, batch, estimate_batch_bytes(batch), cost, token)

    def _fill(self, key: CacheKey, batch: ColumnBatch, size: int, cost: float, token) -> bool:
        """Admit and store one entry, sized by the caller outside the lock."""
        with self._lock:
            why = None
            if token is not None and self._token is not None and token != self._token:
                why = "stale_token"
            elif size > self.max_bytes:
                why = "oversized"
            if why is not None:
                self.statistics.rejected_fills += 1
                if self._tracer.enabled:
                    self._tracer.event("matcache.fill_rejected", key=key[0][:16], why=why)
                return False
            self._store_locked(key, _Entry(batch, size, max(cost, 0.0)))
            self.statistics.fills += 1
            if self._tracer.enabled:
                self._tracer.event(
                    "matcache.fill", key=key[0][:16], order=key[1], bytes=size
                )
            self._on_put_locked(key)
            return True

    def _on_put_locked(self, key: CacheKey) -> None:
        """Hook invoked (with the lock held) after a successful fill.

        The disk tier uses it to drop the key's now-outdated spill file in
        the same critical section as the fill — a gap between the two would
        let a concurrent ``get`` fault the stale file back in over the
        fresh rows.
        """

    def _store_locked(self, key: CacheKey, entry: _Entry) -> None:
        """Insert an already-checked entry and rebalance.

        Shared by the fills and fault-in promotion (which must not re-run
        the fill checks or count a fill).  Called with the lock held.
        """
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.bytes
        self._clock += 1
        entry.last_used = self._clock
        self._entries[key] = entry
        self._bytes += entry.bytes
        self._evict_locked(protect=key)

    # --------------------------------------------------------------- eviction

    def _evict_locked(self, protect: Optional[CacheKey] = None) -> None:
        while len(self._entries) > self.max_entries or self._bytes > self.max_bytes:
            victim = min(
                (key for key in self._entries if key != protect),
                key=lambda k: (
                    self.policy.score(k, self._entries[k], self._clock),
                    self._entries[k].last_used,
                ),
                default=None,
            )
            if victim is None:
                return
            entry = self._entries.pop(victim)
            self._bytes -= entry.bytes
            self.statistics.evictions += 1
            if self._tracer.enabled:
                self._tracer.event("matcache.evict", key=victim[0][:16], bytes=entry.bytes)
            self._on_evict_locked(victim, entry)

    def _on_evict_locked(self, key: CacheKey, entry: _Entry) -> None:
        """Hook invoked (with the lock held) for every evicted victim.

        The memory tier drops victims on the floor; the disk tier
        (:class:`~repro.storage.spill.SpillingMaterializationCache`)
        overrides this to spill them to per-entry files instead.
        """
