"""The :class:`~repro.execution.columnar.batch.KeyIndex` a long-lived batch carries.

Column images and cached materializations hold one; hash joins probe the
smaller side into it instead of reading the larger side.  These tests pin
its life on cache entries (it dies with the entry on invalidation and on
eviction, a faulted entry starts with a fresh holder but keeps the
rent-or-buy history of the one it replaced, and takes back the non-unique
indexes its spill file keeps), that index memory is never accounted in RAM
(``matcache.bytes`` is that of the data alone; a spill file is longer by its
index sections),
that it is safe beside concurrent image builds and evictions, and that a
session exports how often it was built and probed.
"""

import gc
import sys
import threading
import weakref

from repro.algebra.expressions import col
from repro.execution import ColumnarExecutor
from repro.execution.columnar import ColumnBatch
from repro.execution.columnar.batch import build_index
from repro.execution.data import Database
from repro.obs import Observability
from repro.service import OptimizerSession
from repro.service.matcache import MaterializationCache, estimate_batch_bytes
from repro.storage.codec import encode_index_sections
from repro.storage.spill import SpillingMaterializationCache, _spill_filename
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)

KEY = ("entry", "any")
OTHER = ("other", "any")
EQUI = [(col("l.k0"), col("r.k0"))]


def entry(rows=700):
    """A cached materialization as the columnar executor stores it."""
    return ColumnBatch(
        {"l.k0": [i % 7 for i in range(rows)], "l.v": [f"v{i}" for i in range(rows)]}, rows
    ).indexed()


SMALL = ColumnBatch({"r.k0": [3, 5]}, 2)


def expected_pairs(batch):
    """The pairs of the plain (index-less) join."""
    plain = ColumnBatch(dict(batch.columns), batch.length, batch.masks)
    return ColumnarExecutor(Database())._hash_join_pairs(plain, SMALL, EQUI)


def probe(batch, times=1, executor=None):
    """Join ``batch`` (the larger left side) with ``SMALL`` ``times`` times."""
    executor = executor if executor is not None else ColumnarExecutor(Database())
    expected = expected_pairs(batch)
    for _ in range(times):
        assert executor._hash_join_pairs(batch.select(["l.k0"]), SMALL, EQUI) == expected
    return executor


# ---------------------------------------------------------------------------
# Lifetime on cache entries
# ---------------------------------------------------------------------------


def test_entry_index_dies_on_invalidate():
    cache = MaterializationCache()
    cache.put_batch(KEY, entry())
    cached = cache.get_batch(KEY)
    probe(cached, times=3)
    assert set(cached.key_index._built) == {"l.k0"}
    holder = weakref.ref(cached.key_index)
    del cached
    cache.invalidate()
    gc.collect()
    assert holder() is None


def test_entry_index_dies_on_eviction():
    cache = MaterializationCache(max_entries=1)
    cache.put_batch(KEY, entry())
    cached = cache.get_batch(KEY)
    probe(cached, times=3)
    assert set(cached.key_index._built) == {"l.k0"}
    holder = weakref.ref(cached.key_index)
    del cached
    cache.put_batch(OTHER, entry(10))
    assert KEY not in cache and cache.statistics.evictions == 1
    gc.collect()
    assert holder() is None


def test_faulted_entry_starts_with_a_fresh_holder_and_keeps_its_history(tmp_path):
    cache = SpillingMaterializationCache(tmp_path, max_entries=1)
    cache.ensure_token("data")
    cache.put_batch(KEY, entry())
    cached = cache.get_batch(KEY)
    executor = probe(cached)  # a probe on the left scans until scans pay
    assert cached.key_index._built == {} and cached.key_index.scans == {"l.k0": 1}
    cache.put_batch(OTHER, entry(10))  # spills KEY
    assert cache.statistics.spills == 1
    faulted = cache.get_batch(KEY)
    assert cache.statistics.faults == 1
    assert faulted is not cached and faulted.key_index is not cached.key_index
    assert faulted.key_index._built == {}
    assert faulted.key_index.scans == {"l.k0": 1}
    # The scan paid before the spill counts: one more, and the next buys.
    probe(faulted, executor=executor)
    assert faulted.key_index.scans == {"l.k0": 2}
    assert executor.key_index_builds.value == 0
    # Spilled again and faulted again, it still remembers.
    cache.get_batch(OTHER)
    again = cache.get_batch(KEY)
    assert cache.statistics.faults == 3
    assert again.key_index is not faulted.key_index
    assert again.key_index._built == {} and again.key_index.scans == {"l.k0": 2}
    probe(again, executor=executor)
    assert (executor.key_index_builds.value, executor.key_index_probes.value) == (1, 1)
    assert set(again.key_index._built) == {"l.k0"}


def test_faulted_entry_gets_back_its_non_unique_indexes(tmp_path):
    """The spill file keeps the index the entry had when it was spilled; an
    index built on the faulted entry is appended when it is evicted again,
    and the next fault brings both back.  Unique indexes are not kept."""
    obs = Observability()
    cache = SpillingMaterializationCache(tmp_path, max_entries=1, obs=obs)
    cache.ensure_token("data")
    batch = entry()
    batch.columns["l.g"] = [i % 3 for i in range(batch.length)]
    cache.put_batch(KEY, batch)
    executor = ColumnarExecutor(Database())
    right = cache.get_batch(KEY)
    for column in ("l.k0", "l.v"):  # the cached batch on the right: bought at once
        executor._hash_join_pairs(
            ColumnBatch({"r.x": [3, 5]}, 2), right, [(col("r.x"), col(column))]
        )
    assert {name: unique for name, (unique, _) in right.key_index._built.items()} == {
        "l.k0": False, "l.v": True,
    }
    cache.put_batch(OTHER, entry(10))  # spills KEY with l.k0's section
    faulted = cache.get_batch(KEY)
    assert set(faulted.key_index._built) == {"l.k0"}
    assert faulted.key_index._built["l.k0"] == right.key_index._built["l.k0"]
    assert cache.key_indexes_restored.value == 1
    executor._hash_join_pairs(
        ColumnBatch({"r.x": [1]}, 1), faulted, [(col("r.x"), col("l.g"))]
    )
    path = tmp_path / _spill_filename(KEY)
    size, written = path.stat().st_size, cache.statistics.spill_bytes_written
    cache.get_batch(OTHER)  # evicts KEY again: the file gains l.g's section
    assert cache.statistics.spills == 2
    assert path.stat().st_size - size == cache.statistics.spill_bytes_written - written > 0
    size = path.stat().st_size
    assert cache.checkpoint() == 0  # the hot entry, OTHER, has its file already
    assert path.stat().st_size == size
    again = cache.get_batch(KEY)
    assert set(again.key_index._built) == {"l.k0", "l.g"}
    assert obs.registry.snapshot()["counters"]["matcache_key_indexes_restored"] == 3


def test_checkpoint_appends_the_sections_a_hot_entry_file_lacks(tmp_path):
    cache = SpillingMaterializationCache(tmp_path, max_entries=1)
    cache.ensure_token("data")
    cache.put_batch(KEY, entry())
    cache.put_batch(OTHER, entry(10))  # spills KEY, no index yet
    faulted = cache.get_batch(KEY)
    ColumnarExecutor(Database())._hash_join_pairs(SMALL, faulted, [(col("r.k0"), col("l.k0"))])
    path = tmp_path / _spill_filename(KEY)
    size = path.stat().st_size
    assert cache.checkpoint() == 0 and path.stat().st_size > size
    size = path.stat().st_size
    assert cache.checkpoint() == 0 and path.stat().st_size == size  # appended once
    reborn = SpillingMaterializationCache(tmp_path, max_entries=1)
    reborn.ensure_token("data")
    assert set(reborn.get_batch(KEY).key_index._built) == {"l.k0"}
    assert reborn.key_indexes_restored.value == 1


def test_index_memory_is_never_accounted(tmp_path):
    """Two caches fed equal entries, indexes built in one only: the RAM
    books agree, and on disk the indexed entry's file is longer by exactly
    its index section (spill bytes are file bytes)."""
    counted = []
    for index, name in enumerate(("plain", "indexed")):
        cache = SpillingMaterializationCache(tmp_path / name, max_entries=1)
        cache.ensure_token("data")
        batch = entry()
        cache.put_batch(KEY, batch)
        before = cache.current_bytes
        if index:
            probe(cache.get_batch(KEY), times=3)
            assert cache.get_batch(KEY).key_index._built
        assert cache.current_bytes == before == estimate_batch_bytes(batch)
        cache.put_batch(OTHER, entry(10))
        stats = cache.statistics_snapshot()
        counted.append(
            (before, stats["spill_bytes_written"], cache.disk_bytes, cache.current_bytes)
        )
    (plain_ram, plain_written, plain_disk, plain_now) = counted[0]
    (ram, written, disk, now) = counted[1]
    assert (ram, now) == (plain_ram, plain_now)
    _, table = build_index(entry().columns["l.k0"])
    section = len(encode_index_sections("00" * 32, {"l.k0": table}))
    assert written - plain_written == disk - plain_disk == section


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def test_key_index_beside_concurrent_image_builds():
    """Scheduler workers execute side by side and image tables lazily after
    every version bump: a thread probing this version's images' key indexes
    while another thread images more tables must neither fail nor read a
    wrong index."""
    db = Database({f"t{i}": [{"a": i}, {"a": i}] for i in range(200)})
    names = list(db.tables)
    errors = []

    def probe_images(stop):
        while not stop.is_set():
            for name in names:
                try:
                    image = db.column_image(name)
                    (unique, table), _ = image.key_index.lookup(image.columns["a"], buy=True)
                    assert not unique
                    assert {k: list(at) for k, at in table.items()} == {int(name[1:]): [0, 1]}
                except Exception as error:  # reported below, in the main thread
                    errors.append(error)
                    return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            db.touch()
            stop = threading.Event()
            worker = threading.Thread(target=probe_images, args=(stop,))
            worker.start()
            for name in db.tables:
                db.column_image(name)
            stop.set()
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    image = db.column_image("t199")
    (unique, table), _ = image.key_index.lookup(image.columns["a"], buy=True)
    assert not unique and {k: list(at) for k, at in table.items()} == {199: [0, 1]}


def test_probes_beside_eviction(tmp_path):
    """Two threads probe one cached entry's column while a third evicts it
    (to disk, so reads fault it back in with a fresh holder): no exception,
    and every join returns the index-less pairs."""
    cache = SpillingMaterializationCache(tmp_path, max_entries=1)
    cache.ensure_token("data")
    cache.put_batch(KEY, entry())
    cache.put_batch(OTHER, entry(10))
    expected = expected_pairs(entry())
    errors = []
    stop = threading.Event()

    def prober():
        executor = ColumnarExecutor(Database())
        try:
            for _ in range(300):
                batch = cache.get_batch(KEY)
                assert executor._hash_join_pairs(batch.select(["l.k0"]), SMALL, EQUI) == expected
        except Exception as error:  # reported below, in the main thread
            errors.append(error)

    def evictor():
        try:
            while not stop.is_set():
                cache.get_batch(OTHER)
        except Exception as error:
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        probers = [threading.Thread(target=prober) for _ in range(2)]
        third = threading.Thread(target=evictor)
        third.start()
        for thread in probers:
            thread.start()
        for thread in probers:
            thread.join()
        stop.set()
        third.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert cache.statistics.faults > 0


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_session_exports_key_index_counters():
    catalog = star_schema_catalog(n_dimensions=3, key_fanout=2)
    db = star_schema_database(fact_rows=300, seed=3, n_dimensions=3, key_fanout=2)
    obs = Observability()
    session = OptimizerSession(catalog, database=db, executor="columnar", obs=obs)
    batch = random_star_batch(3, seed=5, n_dimensions=3)
    for _ in range(3):
        session.execute_batch(batch)
    counters = obs.registry.snapshot()["counters"]
    builds = counters["execution_key_index_builds"]
    probes = counters["execution_key_index_probes"]
    assert 0 < builds <= probes
    assert session._executor.key_index_probes.value == probes
