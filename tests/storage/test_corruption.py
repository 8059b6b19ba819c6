"""Corruption and fault-injection tests for the durable cache tier.

The acceptance bar: a truncated spill file, a token-mismatched file, and a
write failing mid-spill must each degrade to a **clean cache miss** — never
a crash, never stale rows — and the damaged file must be gone afterwards.
"""

import os

import pytest

from repro.dag.fingerprint import RelationSignature
from repro.service.matcache import cache_key
from repro.storage import SpillingMaterializationCache
from repro.storage import spill as spill_module


def key(n: int):
    return cache_key(RelationSignature(f"table{n}", f"t{n}"))


def rows_for(n: int):
    return [{"t.k": n, "t.payload": f"π-{n}-{i}"} for i in range(1 + n % 4)]


def spilled_cache(tmp_path, entries=4):
    """A cache with every entry checkpointed to disk and dropped from RAM."""
    cache = SpillingMaterializationCache(tmp_path / "spill", max_entries=entries)
    cache.ensure_token("tok")
    for n in range(entries):
        assert cache.put(key(n), rows_for(n), cost=1.0, token="tok")
    cache.checkpoint()
    return cache


def spill_files(tmp_path):
    return sorted((tmp_path / "spill").glob("*.spill"))


class TestTruncatedFiles:
    @pytest.mark.parametrize("keep_bytes", [0, 3, 12, 40, -1])
    def test_truncated_file_is_a_clean_miss_and_removed(self, tmp_path, keep_bytes):
        spilled_cache(tmp_path, entries=4)
        reborn = SpillingMaterializationCache(tmp_path / "spill", max_entries=4)
        reborn.ensure_token("tok")
        victim_key = reborn.disk_keys()[0]
        victim_path = (tmp_path / "spill") / spill_module._spill_filename(victim_key)
        size = victim_path.stat().st_size
        keep = size + keep_bytes if keep_bytes < 0 else keep_bytes
        with open(victim_path, "r+b") as handle:
            handle.truncate(keep)

        assert reborn.get(victim_key) is None
        assert reborn.statistics.corrupt_files_dropped >= 1
        assert not victim_path.exists(), "invalidated file must be removed"
        # The cache stays fully usable; a refill serves normally again.
        assert reborn.put(victim_key, rows_for(99), token="tok")
        assert reborn.get(victim_key) == rows_for(99)

    def test_truncated_header_is_dropped_at_recovery(self, tmp_path):
        spilled_cache(tmp_path, entries=3)
        victim = spill_files(tmp_path)[0]
        with open(victim, "r+b") as handle:
            handle.truncate(5)  # inside the magic
        reborn = SpillingMaterializationCache(tmp_path / "spill", max_entries=3)
        assert reborn.statistics.recovered == 2
        assert reborn.statistics.corrupt_files_dropped == 1
        assert not victim.exists()


class TestCorruptPayloads:
    def test_bitflip_in_payload_is_a_clean_miss(self, tmp_path):
        spilled_cache(tmp_path, entries=2)
        reborn = SpillingMaterializationCache(tmp_path / "spill", max_entries=2)
        reborn.ensure_token("tok")
        victim_key = reborn.disk_keys()[0]
        victim_path = (tmp_path / "spill") / spill_module._spill_filename(victim_key)
        data = bytearray(victim_path.read_bytes())
        data[-1] ^= 0xFF  # payload tail: header still parses, checksum won't
        victim_path.write_bytes(bytes(data))

        assert reborn.get(victim_key) is None
        assert reborn.statistics.corrupt_files_dropped == 1
        assert not victim_path.exists()

    def test_any_flip_in_the_packed_vectors_is_a_clean_miss(self, tmp_path):
        """``rows_for`` columns are all-int and all-str, so the payload is a
        packed int64 vector, packed string lengths and one UTF-8 blob: a
        flip anywhere in it (length words and blob included) must cost a
        recomputation, never an exception or different rows."""
        cache = spilled_cache(tmp_path, entries=1)
        (victim_key,) = cache.disk_keys()
        victim_path = (tmp_path / "spill") / spill_module._spill_filename(victim_key)
        pristine = victim_path.read_bytes()
        start = pristine.index(b"\n", pristine.index(b"\n") + 1) + 1
        assert b"u" in pristine[start:] and b"q" in pristine[start:]
        for position in range(start, len(pristine)):
            data = bytearray(pristine)
            data[position] ^= 0x41
            victim_path.write_bytes(bytes(data))
            reborn = SpillingMaterializationCache(tmp_path / "spill", max_entries=1)
            reborn.ensure_token("tok")
            assert reborn.get(victim_key) is None, f"flip at {position} was served"
            assert reborn.statistics.corrupt_files_dropped == 1
            assert not victim_path.exists()

    def test_forged_accounted_bytes_is_dropped_at_recovery(self, tmp_path):
        """The header is outside the checksum; a size that is not a
        non-negative integer must not reach the cache's books."""
        cache = spilled_cache(tmp_path, entries=1)
        (victim_key,) = cache.disk_keys()
        victim_path = (tmp_path / "spill") / spill_module._spill_filename(victim_key)
        data = victim_path.read_bytes()
        assert b'"accounted_bytes": ' in data
        victim_path.write_bytes(data.replace(b'"accounted_bytes": ', b'"accounted_bytes": -'))
        reborn = SpillingMaterializationCache(tmp_path / "spill", max_entries=1)
        assert reborn.statistics.recovered == 0
        assert reborn.statistics.corrupt_files_dropped == 1
        assert not victim_path.exists()

    def test_foreign_file_under_the_right_name_is_rejected(self, tmp_path):
        """A file whose header key disagrees with its filename (collision or
        tampering) must not be served for the requested key."""
        cache = spilled_cache(tmp_path, entries=2)
        keys = cache.disk_keys()
        path_a = (tmp_path / "spill") / spill_module._spill_filename(keys[0])
        path_b = (tmp_path / "spill") / spill_module._spill_filename(keys[1])
        os.replace(path_b, path_a)  # a valid file... for a different key

        reborn = SpillingMaterializationCache(tmp_path / "spill", max_entries=2)
        reborn.ensure_token("tok")
        # Recovery indexed the file under its *header* key (keys[1]); the
        # lookup for keys[0] finds nothing, and if the index were fooled the
        # header-vs-requested-key check would still reject the rows.
        assert reborn.get(keys[0]) is None
        assert reborn.get(keys[1]) == rows_for(
            next(n for n in range(2) if key(n) == keys[1])
        )


class TestTokenMismatchedFiles:
    def test_stale_token_file_is_dropped_not_served(self, tmp_path):
        spilled_cache(tmp_path, entries=3)  # written under "tok"
        reborn = SpillingMaterializationCache(tmp_path / "spill", max_entries=3)
        reborn.ensure_token("different-data")
        for n in range(3):
            assert reborn.get(key(n)) is None
        assert reborn.statistics.stale_files_dropped == 3
        assert spill_files(tmp_path) == []

    def test_fresh_fills_after_stale_drop_serve_normally(self, tmp_path):
        spilled_cache(tmp_path, entries=2)
        reborn = SpillingMaterializationCache(tmp_path / "spill", max_entries=2)
        reborn.ensure_token("v2")
        assert reborn.get(key(0)) is None
        assert reborn.put(key(0), rows_for(5), token="v2")
        assert reborn.get(key(0)) == rows_for(5)


class TestWriteFailures:
    def test_failed_spill_degrades_to_plain_eviction(self, tmp_path, monkeypatch):
        cache = SpillingMaterializationCache(tmp_path / "spill", max_entries=1)
        cache.ensure_token("tok")
        cache.put(key(1), rows_for(1), token="tok")

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(spill_module.os, "replace", exploding_replace)
        # The eviction of key(1) tries to spill and fails mid-write.
        assert cache.put(key(2), rows_for(2), token="tok")
        monkeypatch.undo()

        assert cache.statistics.spill_errors == 1
        assert cache.statistics.evictions == 1
        assert cache.get(key(1)) is None  # lost, but cleanly
        assert cache.get(key(2)) == rows_for(2)
        # No partial or temp file survives the failure.
        leftovers = [p.name for p in (tmp_path / "spill").iterdir()]
        assert all(not name.startswith(".spill-tmp-") for name in leftovers)
        assert spill_files(tmp_path) == []

    def test_write_failure_mid_spill_never_resurrects_older_rows(
        self, tmp_path, monkeypatch
    ):
        """The sequence: spill v1, fault it back, overwrite with v2 (drops
        the v1 file), evict v2 with a failing write.  The key must now miss
        — the pre-fix hazard would be serving v1 from the leftover file."""
        cache = SpillingMaterializationCache(tmp_path / "spill", max_entries=1)
        cache.ensure_token("tok")
        cache.put(key(1), rows_for(1), cost=5.0, token="tok")
        cache.put(key(2), rows_for(2), cost=1.0, token="tok")  # spills v1 of key(1)
        assert cache.get(key(1)) == rows_for(1)  # faulted back (file kept)
        v2 = [{"t.k": 1, "t.payload": "v2"}]
        assert cache.put(key(1), v2, cost=5.0, token="tok")  # outdates the file

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(spill_module.os, "replace", exploding_replace)
        cache.put(key(3), rows_for(3), cost=9.0, token="tok")  # evicts key(1), spill fails
        monkeypatch.undo()

        got = cache.get(key(1))
        assert got is None, f"stale v1 rows must not be served, got {got}"

    def test_checkpoint_with_failing_writes_is_best_effort(self, tmp_path, monkeypatch):
        cache = SpillingMaterializationCache(tmp_path / "spill", max_entries=4)
        cache.ensure_token("tok")
        for n in range(3):
            cache.put(key(n), rows_for(n), token="tok")

        def exploding_replace(src, dst):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(spill_module.os, "replace", exploding_replace)
        assert cache.checkpoint() == 0
        monkeypatch.undo()
        assert cache.statistics.spill_errors == 3
        # The hot tier is untouched; a later checkpoint succeeds.
        for n in range(3):
            assert cache.get(key(n)) == rows_for(n)
        assert cache.checkpoint() == 3
