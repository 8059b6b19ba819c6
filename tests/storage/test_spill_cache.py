"""Unit tests for the two-level SpillingMaterializationCache.

The contract on top of the memory tier's: evictions spill, gets fault back
in, restarts recover, stale tokens and budgets are enforced on disk exactly
as in RAM — and a hit is *always* the rows most recently validly put,
whichever tier served it, whichever representation (rows or a batch) the
entry was filled, faulted or read as.  There is one on-disk layout; files
an older release wrote keep being served.
"""

import io
import random
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag.fingerprint import RelationSignature
from repro.execution.columnar import ColumnBatch
from repro.service.matcache import MaterializationCache, cache_key, estimate_rows_bytes
from repro.storage import SpillConfig, SpillingMaterializationCache
from repro.storage import spill as spill_module
from repro.storage.codec import (
    SPILL_FORMAT,
    SPILL_FORMAT_COLUMNAR,
    encode_rows,
    read_spill_header,
    write_spill_file,
)
from test_codec_columnar import spill_file_bytes  # sibling module: the hand-built file envelope


def key(n: int):
    return cache_key(RelationSignature(f"table{n}", f"t{n}"))


def rows_for(n: int, variant: int = 0):
    return [
        {"t.k": n, "t.variant": variant, "t.payload": f"pâyløad-π-{n}-{variant}-{i}"}
        for i in range(1 + n % 5)
    ]


def make(tmp_path, **kwargs):
    kwargs.setdefault("max_entries", 2)
    return SpillingMaterializationCache(tmp_path / "spill", **kwargs)


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


def assert_accounting(cache):
    entries = cache._entries  # white-box: the books must match what is resident
    assert cache.current_bytes == sum(e.bytes for e in entries.values())
    for entry in entries.values():
        rows = entry.batch.to_rows() if entry.rows is None else list(entry.rows)
        assert entry.bytes == estimate_rows_bytes(rows)
    assert cache.current_bytes <= cache.max_bytes
    files = {p.name for p in cache.spill_dir.glob("*.spill")}
    assert len(files) == cache.disk_entries


def write_legacy_file(directory: Path, k, rows, *, legacy: str, token="tok", cost=2.0):
    """One spill file as a previous release would have left it: ``format1``
    (the row payload) or ``format2`` without ``accounted_bytes``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / spill_module._spill_filename(k)
    if legacy == "format2":
        with open(path, "wb") as handle:
            write_spill_file(handle, key=k, rows=rows, token=token, cost=cost)
        return path
    path.write_bytes(
        spill_file_bytes(
            encode_rows(rows),
            spill_format=SPILL_FORMAT,
            row_count=len(rows),
            key=k,
            token=token,
            cost=cost,
        )
    )
    return path


class TestSpillAndFault:
    def test_eviction_spills_and_get_faults_back(self, tmp_path):
        cache = make(tmp_path)
        cache.ensure_token("tok")
        for n in range(4):
            assert cache.put(key(n), rows_for(n), cost=float(n), token="tok")
        assert len(cache) == 2
        assert cache.statistics.evictions == 2
        assert cache.statistics.spills == 2
        assert cache.disk_entries == 2
        # The evicted entries are served from disk, bit-identically.
        for n in range(4):
            assert cache.get(key(n)) == rows_for(n)
        assert cache.statistics.faults >= 2
        assert cache.statistics.misses == 0

    def test_fault_counts_as_hit_and_promotes(self, tmp_path):
        cache = make(tmp_path)
        cache.ensure_token("tok")
        for n in range(3):
            cache.put(key(n), rows_for(n), cost=float(n), token="tok")
        victim = next(n for n in range(3) if key(n) not in cache)
        before = cache.statistics.hits
        assert cache.get(key(victim)) == rows_for(victim)
        assert cache.statistics.hits == before + 1
        assert key(victim) in cache  # promoted into the hot tier

    def test_put_outdates_the_disk_copy(self, tmp_path):
        """A fresh fill for a key must delete the older spilled variant —
        otherwise a later failed re-spill could resurrect stale rows."""
        cache = make(tmp_path)
        cache.ensure_token("tok")
        for n in range(3):
            cache.put(key(n), rows_for(n), cost=float(n), token="tok")
        victim = next(n for n in range(3) if key(n) not in cache)
        assert key(victim) in cache.disk_keys()
        assert cache.put(key(victim), rows_for(victim, variant=7), cost=9.0, token="tok")
        assert key(victim) not in cache.disk_keys()
        assert cache.get(key(victim)) == rows_for(victim, variant=7)

    def test_reeviction_of_unchanged_entry_reuses_the_file(self, tmp_path):
        cache = make(tmp_path, max_entries=1)
        cache.ensure_token("tok")
        cache.put(key(1), rows_for(1), cost=5.0, token="tok")
        cache.put(key(2), rows_for(2), cost=5.0, token="tok")  # evicts+spills 1
        spills_after_first = cache.statistics.spills
        assert cache.get(key(1)) == rows_for(1)  # faults 1, evicts+spills 2
        assert cache.get(key(2)) == rows_for(2)  # faults 2, re-evicts 1
        # Re-evicting 1 (unchanged since its spill) must not rewrite the file.
        assert cache.statistics.spills <= spills_after_first + 1
        assert cache.get(key(1)) == rows_for(1)

    def test_oversized_entries_are_served_from_disk_without_promotion(self, tmp_path):
        big = [{"t.payload": "x" * 200}]
        size = estimate_rows_bytes(big)
        cache = make(tmp_path, max_entries=4, max_bytes=size)
        cache.ensure_token("tok")
        assert cache.put(key(1), big, token="tok")
        # Shrink the hot tier under the entry's size: it spills on the next
        # fill's eviction pass and can never be promoted back...
        cache.max_bytes = size - 1
        cache.put(key(2), [{"k": 1}], token="tok")
        assert key(1) not in cache
        assert cache.get(key(1)) == big  # ...but is still served from disk.
        assert key(1) not in cache


class TestTokens:
    def test_token_change_purges_both_tiers(self, tmp_path):
        cache = make(tmp_path)
        cache.ensure_token("tok1")
        for n in range(4):
            cache.put(key(n), rows_for(n), token="tok1")
        assert cache.disk_entries > 0
        assert cache.ensure_token("tok2")
        assert len(cache) == 0 and cache.disk_entries == 0
        assert list((tmp_path / "spill").glob("*.spill")) == []
        assert all(cache.get(key(n)) is None for n in range(4))

    def test_invalidate_reports_both_tiers(self, tmp_path):
        cache = make(tmp_path)
        cache.ensure_token("tok")
        for n in range(4):
            cache.put(key(n), rows_for(n), token="tok")
        assert cache.invalidate() == 4  # 2 hot + 2 spilled
        assert cache.current_bytes == 0 and cache.disk_bytes == 0


class TestRecovery:
    def test_restart_recovers_spilled_entries(self, tmp_path):
        cache = make(tmp_path)
        cache.ensure_token("tok")
        for n in range(4):
            cache.put(key(n), rows_for(n), cost=float(n), token="tok")
        cache.checkpoint()
        del cache

        reborn = make(tmp_path)
        assert reborn.statistics.recovered == 4
        reborn.ensure_token("tok")
        for n in range(4):
            assert reborn.get(key(n)) == rows_for(n)
        assert reborn.statistics.faults == 4
        assert reborn.statistics.misses == 0

    def test_get_before_token_binding_misses_without_destroying_files(self, tmp_path):
        """Regression: probing a recovered cache before ensure_token() must
        not judge the files stale — their validity is unknowable until the
        cache is bound, and deleting them would destroy exactly the durable
        state recovery exists to keep."""
        cache = make(tmp_path)
        cache.ensure_token("tok")
        for n in range(4):
            cache.put(key(n), rows_for(n), token="tok")
        cache.checkpoint()
        del cache

        reborn = make(tmp_path)
        assert reborn.statistics.recovered == 4
        assert reborn.get(key(0)) is None  # unbound: a miss, not a verdict
        assert reborn.statistics.stale_files_dropped == 0
        assert reborn.disk_entries == 4
        reborn.ensure_token("tok")
        assert reborn.get(key(0)) == rows_for(0)  # file survived to be served

    def test_restart_into_changed_data_drops_files_on_contact(self, tmp_path):
        cache = make(tmp_path)
        cache.ensure_token("old-data")
        for n in range(4):
            cache.put(key(n), rows_for(n), token="old-data")
        cache.checkpoint()
        del cache

        reborn = make(tmp_path)
        reborn.ensure_token("new-data")  # first token: adopted, no flush
        assert reborn.statistics.recovered == 4
        for n in range(4):
            assert reborn.get(key(n)) is None
        assert reborn.statistics.stale_files_dropped == 4
        assert reborn.disk_entries == 0
        assert list((tmp_path / "spill").glob("*.spill")) == []

    def test_checkpoint_then_restart_is_complete(self, tmp_path):
        """checkpoint() makes the disk a full copy: nothing hot is lost."""
        cache = make(tmp_path, max_entries=8)
        cache.ensure_token("tok")
        for n in range(5):
            cache.put(key(n), rows_for(n), token="tok")
        assert cache.disk_entries == 0  # nothing evicted yet
        written = cache.checkpoint()
        assert written == 5
        assert cache.checkpoint() == 0  # idempotent: files are current
        reborn = make(tmp_path, max_entries=8)
        reborn.ensure_token("tok")
        assert sorted(reborn.disk_keys()) == sorted(cache.keys())
        for n in range(5):
            assert reborn.get(key(n)) == rows_for(n)


class TestDiskBudget:
    def test_disk_entry_budget_evicts_oldest_files(self, tmp_path):
        cache = make(tmp_path, max_entries=1, max_disk_entries=2)
        cache.ensure_token("tok")
        for n in range(5):
            cache.put(key(n), rows_for(n), token="tok")
        assert cache.disk_entries <= 2
        assert cache.statistics.disk_evictions >= 1
        files = list((tmp_path / "spill").glob("*.spill"))
        assert len(files) == cache.disk_entries

    def test_disk_byte_budget(self, tmp_path):
        one_file_overhead = 512  # header + payload for these tiny rows
        cache = make(tmp_path, max_entries=1, max_disk_bytes=one_file_overhead)
        cache.ensure_token("tok")
        for n in range(6):
            cache.put(key(n), rows_for(n), token="tok")
        assert cache.disk_bytes <= one_file_overhead
        total = sum(p.stat().st_size for p in (tmp_path / "spill").glob("*.spill"))
        assert total == cache.disk_bytes

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            make(tmp_path, max_disk_bytes=0)
        with pytest.raises(ValueError):
            make(tmp_path, max_disk_entries=0)

    def test_from_config(self, tmp_path):
        config = SpillConfig(max_bytes=1024, max_entries=3, max_disk_bytes=4096, max_disk_entries=7)
        cache = SpillingMaterializationCache.from_config(tmp_path / "s", config)
        assert (cache.max_bytes, cache.max_entries) == (1024, 3)
        assert (cache.max_disk_bytes, cache.max_disk_entries) == (4096, 7)


class TestOneLayout:
    """Every file is columnar (format 2) with the accounted size in its
    header; entries move between the tiers as batches."""

    @pytest.mark.parametrize("as_batch", [False, True])
    def test_spill_files_are_columnar_and_carry_the_accounted_size(self, tmp_path, as_batch):
        cache = make(tmp_path)
        cache.ensure_token("tok")
        sizes = {}
        for n in range(4):
            assert fill(cache, key(n), rows_for(n), as_batch=as_batch, cost=float(n), token="tok")
            sizes[key(n)] = cache._entries[key(n)].bytes
        assert cache.statistics.spills == 2
        for k in cache.disk_keys():
            with open(cache.spill_dir / spill_module._spill_filename(k), "rb") as handle:
                header = read_spill_header(handle)
            assert header.format == SPILL_FORMAT_COLUMNAR
            assert header.accounted_bytes == sizes[k]
        for n in range(4):
            assert cache.get(key(n)) == rows_for(n)
        assert cache.statistics.faults >= 2
        assert cache.statistics.misses == 0

    def test_faulted_entry_is_promoted_as_its_batch(self, tmp_path):
        cache = make(tmp_path)
        cache.ensure_token("tok")
        for n in range(3):
            cache.put(key(n), rows_for(n), cost=float(n), token="tok")
        victim = next(n for n in range(3) if key(n) not in cache)
        batch = cache.get_batch(key(victim))
        assert batch.to_rows() == rows_for(victim)
        entry = cache._entries[key(victim)]
        assert entry.batch is batch and entry.rows is None  # no row round trip
        assert entry.bytes == estimate_rows_bytes(rows_for(victim))
        # A row reader of the faulted entry still gets fresh dicts.
        handed_out = cache.get(key(victim))
        for row in handed_out:
            row["t.payload"] = "corrupted"
        assert cache.get(key(victim)) == rows_for(victim)
        assert cache.get_batch(key(victim)) is batch

    @pytest.mark.parametrize("legacy", ["format1", "format2"])
    @pytest.mark.parametrize("as_batch", [False, True])
    def test_old_format_directory_is_served_by_a_new_process(self, tmp_path, legacy, as_batch):
        """A directory of format-1 files, or of format-2 files from before
        the header carried ``accounted_bytes``, faults in with the right
        rows, sizes and counters — and is re-spilled in today's layout only
        when its entries are refilled."""
        for n in range(4):
            write_legacy_file(tmp_path / "spill", key(n), rows_for(n), legacy=legacy)
        reborn = make(tmp_path, max_entries=4)
        assert reborn.statistics.recovered == 4
        reborn.ensure_token("tok")
        for n in range(4):
            assert fetch(reborn, key(n), as_batch=as_batch) == rows_for(n)
            assert reborn._entries[key(n)].bytes == estimate_rows_bytes(rows_for(n))
            assert reborn._entries[key(n)].cost == 2.0
        stats = reborn.statistics.as_dict()
        assert (stats["faults"], stats["hits"], stats["misses"]) == (4, 4, 0)
        assert stats["corrupt_files_dropped"] == stats["stale_files_dropped"] == 0
        assert_accounting(reborn)
        # Evicting a faulted entry keeps its (old-format) file: no rewrite...
        reborn.max_entries = 1
        reborn.put(key(9), rows_for(9), token="tok")
        assert reborn.statistics.evictions == 4 and reborn.statistics.spills == 0
        # ...a refill outdates it, and the next spill is today's layout.
        reborn.put(key(0), rows_for(0, variant=5), token="tok")
        reborn.put(key(9), rows_for(9), token="tok")
        with open(reborn.spill_dir / spill_module._spill_filename(key(0)), "rb") as handle:
            header = read_spill_header(handle)
        assert header.format == SPILL_FORMAT_COLUMNAR
        assert header.accounted_bytes == estimate_rows_bytes(rows_for(0, variant=5))
        assert fetch(reborn, key(0), as_batch=not as_batch) == rows_for(0, variant=5)
        for n in range(1, 4):
            assert fetch(reborn, key(n), as_batch=not as_batch) == rows_for(n)

    def test_there_is_no_layout_knob(self, tmp_path):
        """One layout: nothing to select, nothing to validate."""
        with pytest.raises(TypeError):
            make(tmp_path, layout="columnar")
        with pytest.raises(TypeError):
            SpillConfig(layout="rows")
        with pytest.raises(TypeError):
            write_spill_file(io.BytesIO(), key=key(1), rows=[], token="t", cost=0.0, layout="rows")

    @pytest.mark.parametrize("fill_as_batch", [False, True])
    @pytest.mark.parametrize("read_as_batch", [False, True])
    def test_counters_do_not_depend_on_the_access_path(
        self, tmp_path, fill_as_batch, read_as_batch
    ):
        """Hits, misses, faults, spills, evictions and the byte books of one
        fixed put/get script are the same for all four combinations of
        fill and read representation (the expected values are what the
        release before the one-layout change counted for put/get)."""
        cache = make(tmp_path, max_entries=2)
        cache.ensure_token("tok")
        script = [0, 1, 2, 0, 3, 1, 0, 2, 7, 3, 3]
        for n in script:
            if fetch(cache, key(n), as_batch=read_as_batch) is None and n != 7:
                fill(cache, key(n), rows_for(n), as_batch=fill_as_batch, cost=float(n), token="tok")
        stats = cache.statistics.as_dict()
        assert {
            name: stats[name]
            for name in ("hits", "misses", "fills", "evictions", "spills", "faults")
        } == {"hits": 6, "misses": 5, "fills": 4, "evictions": 6, "spills": 3, "faults": 4}
        assert cache.current_bytes == 833
        assert_accounting(cache)


ROW_SETS = st.lists(
    st.dictionaries(
        st.sampled_from(["t.k", "π-col", "s", "v"]),
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-(2**70), 2**70),
            st.floats(allow_nan=False),
            st.sampled_from([0.0, -0.0]),
            st.text(max_size=6),
            st.sampled_from(["", "日本語"]),
            st.binary(max_size=4),
            st.tuples(st.integers(-3, 3), st.text(max_size=2)),
        ),
        max_size=4,
    ),
    max_size=6,
)


class TestAccountedBytes:
    @settings(max_examples=60, deadline=None)
    @given(ROW_SETS, st.booleans(), st.booleans())
    def test_property_spill_then_fault_keeps_the_entrys_size(self, rows, fill_as_batch, read_as_batch):
        with tempfile.TemporaryDirectory() as directory:
            cache = SpillingMaterializationCache(Path(directory), max_entries=1)
            cache.ensure_token("tok")
            assert fill(cache, key(1), rows, as_batch=fill_as_batch, cost=3.0, token="tok")
            evicted_bytes = cache._entries[key(1)].bytes
            assert evicted_bytes == estimate_rows_bytes(rows)
            cache.put(key(2), [{"k": 1}], token="tok")  # evicts and spills key(1)
            assert key(1) not in cache
            with open(Path(directory) / spill_module._spill_filename(key(1)), "rb") as handle:
                assert read_spill_header(handle).accounted_bytes == evicted_bytes
            assert fetch(cache, key(1), as_batch=read_as_batch) == rows
            assert cache._entries[key(1)].bytes == evicted_bytes
            assert_accounting(cache)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "put_batch", "get", "get_batch", "shrink", "grow"]),
                st.integers(0, 4),
                ROW_SETS,
            ),
            max_size=25,
        )
    )
    def test_property_books_balance_after_any_put_evict_fault_sequence(self, ops):
        with tempfile.TemporaryDirectory() as directory:
            cache = SpillingMaterializationCache(Path(directory), max_entries=2, max_bytes=900)
            cache.ensure_token("tok")
            model = {}
            for op, n, rows in ops:
                if op in ("shrink", "grow"):
                    cache.max_bytes = 300 if op == "shrink" else 900
                    cache.put(key(9), [{"k": 1}], token="tok")  # runs the eviction pass
                    model[key(9)] = [{"k": 1}]
                elif op.startswith("put"):
                    if fill(cache, key(n), rows, as_batch=op == "put_batch", cost=float(n), token="tok"):
                        model[key(n)] = rows
                else:
                    got = fetch(cache, key(n), as_batch=op == "get_batch")
                    if got is not None:
                        assert got == model[key(n)]
                    elif key(n) in model:  # a modelled miss: only an oversized fill's loss
                        assert estimate_rows_bytes(model[key(n)]) > 300
                assert_accounting(cache)


class TestFuzzTwoLevel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fuzz_against_reference_model(self, tmp_path, seed):
        """The memory-tier fuzz harness, re-run over the two-level cache: a
        hit (from either tier) must match the model exactly; token changes
        stale both tiers."""
        rng = random.Random(seed)
        cache = SpillingMaterializationCache(
            tmp_path / "spill", max_entries=4, max_bytes=2048
        )
        model = {}
        token = 0
        cache.ensure_token(token)
        for step in range(400):
            action = rng.random()
            n = rng.randrange(10)
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
                token += 1
                cache.ensure_token(token)
                model.clear()
            else:
                if token > 0:
                    assert not cache.put(key(n), rows_for(n, -1), token=token - 1)
            # The books balance and the files on disk mirror the index.
            assert_accounting(cache)

    def test_threaded_two_level_hits_never_mix_keys(self, tmp_path):
        cache = SpillingMaterializationCache(
            tmp_path / "spill", max_entries=3, max_bytes=4096
        )
        errors = []

        def worker(worker_seed):
            rng = random.Random(worker_seed)
            try:
                for _ in range(150):
                    n = rng.randrange(8)
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
