"""Property/fuzz tests for the cross-batch MaterializationCache.

The invariants under test:

* a ``get`` never returns stale or partial rows — whatever interleaving of
  fills, hits, evictions and invalidations happened, a hit is exactly the
  row set most recently (and validly) ``put`` for that key,
* byte-size accounting stays consistent with the entries actually stored,
  and never exceeds the configured capacity,
* a fill stamped with an outdated data-version token is rejected, and
* an entry holds one ``ColumnBatch`` whichever fill made it: ``put``
  (rows, transposed in) and ``put_batch`` run the same checks and count
  the same, ``get`` always hands out fresh row dicts, ``get_batch`` the
  shared batch.
"""

import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.execution.columnar import ColumnBatch
from repro.service.matcache import (
    MaterializationCache,
    cache_key,
    estimate_batch_bytes,
    estimate_rows_bytes,
)
from repro.dag.fingerprint import RelationSignature


def key(n: int):
    return cache_key(RelationSignature(f"table{n}", f"t{n}"))


def rows_for(n: int, variant: int = 0):
    """A deterministic, key-specific row set (stale data is detectable).

    Payloads deliberately mix in non-ASCII characters so every accounting
    assertion below exercises the documented *byte* (not character)
    counting.
    """
    return [
        {"t.k": n, "t.variant": variant, "t.payload": f"pâyløad-π-{n}-{variant}-{i}"}
        for i in range(1 + n % 5)
    ]


def fill(cache, k, rows, *, as_batch=False, **kwargs):
    """``put`` the rows, or ``put_batch`` their transpose."""
    if as_batch:
        return cache.put_batch(k, ColumnBatch.from_rows(rows), **kwargs)
    return cache.put(k, rows, **kwargs)


def fetch(cache, k, *, as_batch=False):
    """``get``, or ``get_batch`` converted back to rows."""
    if as_batch:
        batch = cache.get_batch(k)
        return None if batch is None else batch.to_rows()
    return cache.get(k)


def assert_accounting(cache: MaterializationCache):
    entries = cache._entries  # white-box: accounting must match stored entries
    recomputed = sum(
        estimate_rows_bytes(e.batch.to_rows())
        for e in entries.values()
    )
    assert cache.current_bytes == sum(e.bytes for e in entries.values()) == recomputed
    assert cache.current_bytes <= cache.max_bytes
    assert len(cache) <= cache.max_entries


class TestBasics:
    def test_miss_fill_hit(self):
        cache = MaterializationCache()
        assert cache.get(key(1)) is None
        assert cache.put(key(1), rows_for(1), cost=10.0)
        assert cache.get(key(1)) == rows_for(1)
        stats = cache.statistics
        assert (stats.hits, stats.misses, stats.fills) == (1, 1, 1)

    def test_get_returns_a_copy(self):
        cache = MaterializationCache()
        cache.put(key(1), rows_for(1))
        handed_out = cache.get(key(1))
        handed_out[0]["t.payload"] = "corrupted"
        handed_out.pop()
        assert cache.get(key(1)) == rows_for(1)

    def test_heterogeneous_rows_round_trip_exactly(self):
        """``put`` transposes rows into a batch; a key a row lacks must stay
        absent (not become None) in what ``get`` hands back."""
        cache = MaterializationCache()
        rows = [{"t.k": 1}, {"t.v": None}, {"t.v": "π", "t.k": 2}, {}]
        assert cache.put(key(1), rows)
        assert cache.get(key(1)) == rows
        assert cache.current_bytes == estimate_rows_bytes(rows)

    def test_put_copies_its_input(self):
        cache = MaterializationCache()
        mine = rows_for(2)
        cache.put(key(2), mine)
        mine[0]["t.payload"] = "corrupted"
        assert cache.get(key(2)) == rows_for(2)

    def test_same_fingerprint_different_order_are_distinct(self):
        from repro.algebra.expressions import col
        from repro.algebra.properties import SortOrder

        sig = RelationSignature("t", "t")
        unsorted_key = cache_key(sig)
        sorted_key = cache_key(sig, SortOrder((col("t.k"),)))
        assert unsorted_key != sorted_key

    def test_invalidate_clears_everything(self):
        cache = MaterializationCache()
        for n in range(4):
            cache.put(key(n), rows_for(n))
        assert cache.invalidate() == 4
        assert len(cache) == 0 and cache.current_bytes == 0
        assert all(cache.get(key(n)) is None for n in range(4))

    def test_oversized_fill_rejected(self):
        cache = MaterializationCache(max_bytes=64)
        big = [{"t.payload": "x" * 1000}]
        assert not cache.put(key(1), big)
        assert cache.statistics.rejected_fills == 1
        assert len(cache) == 0 and cache.current_bytes == 0


class TestByteAccounting:
    def test_string_values_count_utf8_bytes_not_characters(self):
        """Regression: len("héllo") is 5 characters but 6 UTF-8 bytes; the
        documented byte accounting must use the encoded length."""
        ascii_rows = [{"k": "hello"}]
        accented_rows = [{"k": "héllo"}]
        wide_rows = [{"k": "日本語です"}]  # 5 characters, 15 UTF-8 bytes
        assert estimate_rows_bytes(ascii_rows) == 64 + 1 + 5
        assert estimate_rows_bytes(accented_rows) == 64 + 1 + 6
        assert estimate_rows_bytes(wide_rows) == 64 + 1 + 15
        assert (
            estimate_rows_bytes(accented_rows)
            == estimate_rows_bytes(ascii_rows)
            + len("héllo".encode("utf-8"))
            - len("hello")
        )

    def test_non_ascii_keys_count_utf8_bytes(self):
        assert estimate_rows_bytes([{"π": 1}]) == 64 + 2 + 8

    def test_capacity_enforced_against_encoded_size(self):
        """A payload that fits by character count but not by byte count must
        be rejected (the pre-fix accounting would have admitted it)."""
        payload = "ü" * 40  # 40 characters, 80 bytes
        row_bytes = estimate_rows_bytes([{"k": payload}])
        assert row_bytes == 64 + 1 + 80
        cache = MaterializationCache(max_bytes=64 + 1 + 40)
        assert not cache.put(key(1), [{"k": payload}])
        assert cache.statistics.rejected_fills == 1
        roomy = MaterializationCache(max_bytes=row_bytes)
        assert roomy.put(key(1), [{"k": payload}])
        assert_accounting(roomy)


class TestRowsOrBatch:
    """One stored representation per entry; readers never notice which."""

    @pytest.mark.parametrize("as_batch", [False, True])
    def test_get_hands_out_fresh_dicts_whatever_the_entry_holds(self, as_batch):
        cache = MaterializationCache()
        assert fill(cache, key(3), rows_for(3), as_batch=as_batch, cost=1.0)
        for _ in range(2):
            handed_out = cache.get(key(3))
            assert handed_out == rows_for(3)
            for row in handed_out:  # mutate every returned row
                row["t.payload"] = "corrupted"
                row["extra"] = 1
            handed_out.clear()
        assert cache.get(key(3)) == rows_for(3)
        assert cache.get_batch(key(3)).to_rows() == rows_for(3)

    def test_batch_entry_keeps_no_row_copy(self):
        cache = MaterializationCache()
        batch = ColumnBatch.from_rows(rows_for(4))
        cache.put_batch(key(4), batch)
        assert cache.get(key(4)) == rows_for(4)
        entry = cache._entries[key(4)]
        assert entry.batch is batch  # a row read derives rows, it stores none
        assert entry.bytes == estimate_batch_bytes(batch) == estimate_rows_bytes(rows_for(4))
        assert cache.get_batch(key(4)) is batch

    def test_get_batch_after_a_row_put_memoizes_one_transpose(self):
        cache = MaterializationCache()
        cache.put(key(2), rows_for(2))
        first = cache.get_batch(key(2))
        assert first.to_rows() == rows_for(2)
        assert cache.get_batch(key(2)) is first
        assert cache.get(key(2)) == rows_for(2)

    @pytest.mark.parametrize("as_batch", [False, True])
    def test_fills_run_the_same_checks_and_count_the_same(self, as_batch):
        rows = rows_for(1)
        cache = MaterializationCache(max_bytes=estimate_rows_bytes(rows))
        cache.ensure_token("v1")
        assert not fill(cache, key(1), rows, as_batch=as_batch, cost=5.0, token="v0")
        assert not fill(cache, key(1), rows + rows, as_batch=as_batch, cost=5.0, token="v1")
        assert fill(cache, key(1), rows, as_batch=as_batch, cost=5.0, token="v1")
        assert cache.statistics.as_dict() == {
            "hits": 0,
            "misses": 0,
            "fills": 1,
            "rejected_fills": 2,
            "evictions": 0,
            "invalidations": 0,
        }
        assert cache.current_bytes == estimate_rows_bytes(rows)
        assert_accounting(cache)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "put_batch", "get", "get_batch", "shrink"]),
                st.integers(0, 5),
                st.lists(
                    st.dictionaries(
                        st.sampled_from(["t.k", "π", "s"]),
                        st.one_of(
                            st.none(),
                            st.booleans(),
                            st.integers(-(2**70), 2**70),
                            st.floats(allow_nan=False),
                            st.text(max_size=5),
                            st.binary(max_size=3),
                        ),
                        max_size=3,
                    ),
                    max_size=4,
                ),
            ),
            max_size=30,
        )
    )
    def test_property_current_bytes_is_the_sum_over_resident_entries(self, ops):
        cache = MaterializationCache(max_entries=3, max_bytes=600)
        model = {}
        for op, n, rows in ops:
            if op == "shrink":
                cache.max_bytes = max(cache.max_bytes - 50, 100)
                cache.put(key(9), [{"k": 1}])  # any fill runs the eviction pass
                model[key(9)] = [{"k": 1}]
            elif op.startswith("put"):
                if fill(cache, key(n), rows, as_batch=op == "put_batch", cost=float(n)):
                    model[key(n)] = rows
                    assert cache._entries[key(n)].bytes == estimate_rows_bytes(rows)
            else:
                got = fetch(cache, key(n), as_batch=op == "get_batch")
                assert got is None or got == model[key(n)]
            assert_accounting(cache)


class TestTokens:
    def test_stale_token_fill_rejected(self):
        cache = MaterializationCache()
        cache.ensure_token(("db", 0))
        assert cache.put(key(1), rows_for(1), token=("db", 0))
        assert cache.ensure_token(("db", 1))  # data changed: flush
        assert cache.get(key(1)) is None
        # A slow execution finishing now must not reinstate stale rows.
        assert not cache.put(key(1), rows_for(1, variant=99), token=("db", 0))
        assert cache.get(key(1)) is None
        assert cache.put(key(1), rows_for(1, variant=1), token=("db", 1))
        assert cache.get(key(1)) == rows_for(1, variant=1)

    def test_unchanged_token_keeps_entries(self):
        cache = MaterializationCache()
        cache.ensure_token(1)
        cache.put(key(1), rows_for(1), token=1)
        assert not cache.ensure_token(1)
        assert cache.get(key(1)) == rows_for(1)


class TestEviction:
    def test_entry_count_bound(self):
        cache = MaterializationCache(max_entries=3)
        for n in range(10):
            cache.put(key(n), rows_for(n))
            assert_accounting(cache)
        assert len(cache) == 3
        assert cache.statistics.evictions == 7

    def test_byte_capacity_bound(self):
        one_entry = estimate_rows_bytes(rows_for(1))
        cache = MaterializationCache(max_bytes=one_entry * 3)
        for n in (1, 1, 1, 1):  # refills of one key never grow the accounting
            cache.put(key(n), rows_for(n))
        assert len(cache) == 1
        assert_accounting(cache)

    def test_cost_aware_victim_selection(self):
        """The cheap-to-recompute entry goes first, not the oldest."""
        cache = MaterializationCache(max_entries=2)
        cache.put(key(1), rows_for(1), cost=1000.0)  # oldest but expensive
        cache.put(key(2), rows_for(2), cost=0.001)  # cheap
        cache.put(key(3), rows_for(3), cost=1000.0)  # triggers eviction
        assert cache.get(key(2)) is None
        assert cache.get(key(1)) is not None
        assert cache.get(key(3)) is not None


class TestRandomizedInterleavings:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fuzz_against_reference_model(self, seed):
        """Random fills/hits/evictions/invalidations vs a dict reference model.

        The cache may evict (a modelled hit may miss), but a *hit* must match
        the model exactly — no stale, partial or cross-key rows — and the
        byte accounting must stay consistent after every step.
        """
        rng = random.Random(seed)
        cache = MaterializationCache(max_entries=8, max_bytes=4096)
        model = {}
        token = 0
        cache.ensure_token(token)
        for step in range(600):
            action = rng.random()
            n = rng.randrange(12)
            as_batch = (step + n) % 2 == 1  # either representation, either reader
            if action < 0.45:
                variant = rng.randrange(1000)
                if fill(
                    cache,
                    key(n),
                    rows_for(n, variant),
                    as_batch=as_batch,
                    cost=rng.uniform(0, 100),
                    token=token,
                ):
                    model[key(n)] = rows_for(n, variant)
            elif action < 0.85:
                got = fetch(cache, key(n), as_batch=as_batch)
                if got is not None:
                    assert got == model[key(n)], f"stale/partial rows at step {step}"
            elif action < 0.95:
                # Data change: everything modelled so far is stale.
                token += 1
                cache.ensure_token(token)
                model.clear()
            else:
                # A straggler fill with the previous token must be rejected.
                if token > 0:
                    assert not cache.put(key(n), rows_for(n, -1), token=token - 1)
            assert_accounting(cache)
        # Whatever survived is still exact.
        for k in cache.keys():
            if k in model:
                assert cache.get(k) == model[k]

    def test_put_get_invalidate_hammer_keeps_counters_consistent(self):
        """4 threads hammer put/get/invalidate concurrently; afterwards the
        statistics must balance exactly:

        * ``hits + misses`` equals the gets issued,
        * ``fills`` equals the puts that reported success, and
        * every fill is accounted for — still resident, evicted, or dropped
          by an invalidation (puts use globally unique keys, so no fill can
          hide behind an overwrite).

        This is the regression harness for the ``put``/``invalidate``
        interleaving around ``_evict_locked``, which no earlier test drove
        concurrently."""
        cache = MaterializationCache(max_entries=16, max_bytes=16384)
        counters_lock = threading.Lock()
        totals = {"gets": 0, "ok_puts": 0, "dropped": 0}
        errors = []
        key_seq = iter(range(10**9))

        def worker(worker_seed):
            rng = random.Random(worker_seed)
            gets = ok_puts = dropped = 0
            try:
                for _ in range(500):
                    roll = rng.random()
                    if roll < 0.5:
                        n = next(key_seq)
                        if cache.put(key(n), rows_for(n % 12), cost=rng.uniform(0, 10)):
                            ok_puts += 1
                    elif roll < 0.9:
                        cache.get(key(rng.randrange(200)))
                        gets += 1
                    else:
                        dropped += cache.invalidate()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
            with counters_lock:
                totals["gets"] += gets
                totals["ok_puts"] += ok_puts
                totals["dropped"] += dropped

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.statistics
        assert stats.hits + stats.misses == totals["gets"]
        assert stats.fills == totals["ok_puts"]
        assert stats.fills == len(cache) + stats.evictions + totals["dropped"]
        assert_accounting(cache)

    def test_concurrent_row_mutation_during_put_cannot_skew_accounting(self):
        """Regression: ``put`` must size the frozen copy it stores, not the
        caller's live list.  The executor merges row dicts in place, so a
        fill racing such a mutation could otherwise store rows whose byte
        accounting disagrees with the cache's books."""
        import sys

        cache = MaterializationCache(max_entries=8, max_bytes=1 << 24)
        stop = threading.Event()
        # Many rows widen the window: the pre-fix code walked the *live*
        # list to size it after freezing, so a mutation landing anywhere in
        # that walk produced books that disagree with the stored rows.
        shared = [{"t.k": i, "t.payload": "x"} for i in range(300)]
        errors = []

        def mutator():
            rng = random.Random(1)
            while not stop.is_set():
                index = rng.randrange(len(shared))
                shared[index]["t.payload"] = "y" * rng.choice((1, 400))

        def filler():
            try:
                for _ in range(300):
                    cache.put(key(1), shared, cost=1.0)
                    assert_accounting(cache)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)
            finally:
                stop.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force frequent preemption
        try:
            threads = [threading.Thread(target=mutator), threading.Thread(target=filler)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[:1]
        assert_accounting(cache)  # stored bytes == recomputed from stored rows

    def test_threaded_fills_and_hits_never_mix_keys(self):
        """Concurrent workers on one cache: hits are always key-consistent."""
        cache = MaterializationCache(max_entries=6, max_bytes=8192)
        errors = []

        def worker(worker_seed):
            rng = random.Random(worker_seed)
            try:
                for _ in range(400):
                    n = rng.randrange(10)
                    if rng.random() < 0.5:
                        cache.put(key(n), rows_for(n), cost=rng.uniform(0, 10))
                    else:
                        got = cache.get(key(n))
                        if got is not None and got != rows_for(n):
                            errors.append((n, got))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert_accounting(cache)
