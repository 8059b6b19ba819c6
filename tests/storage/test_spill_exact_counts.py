"""Exact counts of the benchmark's ``exec_spill`` recipe, as a tier-1 pin.

``python3 -m benchmarks.perf run --workload exec_spill`` compares these
counts between two commits; nothing compared them against a *fixed* value,
so the cache's accounting could drift PR over PR without a gate firing (the
way cold BQ2 optimization once did).  This is the recipe at ``--tiny`` size:
the columnar backend over a spilling cache whose RAM tier is half the
unconstrained working set, one data refresh, four passes.

The numbers are properties of the accounting, not of the file layout: they
were the same when spill files were row payloads (format 1) and entries
were promoted as row tuples.  Spill *file* sizes are deliberately not
pinned.
"""

from repro.service import OptimizerSession
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)

PASSES = 4


def test_exec_spill_round_counts_are_pinned(tmp_path):
    catalog = star_schema_catalog(n_dimensions=4, key_fanout=16)
    database = star_schema_database(fact_rows=2_000, seed=1, n_dimensions=4, key_fanout=16)
    batches = [random_star_batch(3, seed=s, n_dimensions=4) for s in (1, 4, 7)]
    session = OptimizerSession(
        catalog, database=database, executor="columnar", spill_dir=tmp_path
    )
    cache = session.matcache
    for batch in batches:  # unconstrained warm-up: the working-set size
        session.execute_batch(batch)
    assert cache.current_bytes == 86_554
    cache.max_bytes = cache.current_bytes // 2

    before = cache.statistics_snapshot()
    cache.invalidate()  # the data refresh
    outputs = [
        session.execute_batch(batch).rows for _ in range(PASSES) for batch in batches
    ]
    after = cache.statistics_snapshot()
    moved = {name: after[name] - before[name] for name in after if after[name] != before[name]}
    written = moved.pop("spill_bytes_written")
    assert moved == {
        "hits": 9,
        "misses": 3,
        "fills": 3,
        "evictions": 11,
        "invalidations": 1,
        "spills": 3,
        "faults": 9,
    }
    assert (len(cache), cache.current_bytes, cache.disk_entries) == (1, 30_707, 3)
    assert cache.current_bytes == sum(e.bytes for e in cache._entries.values())
    # Three spills, each written once: re-evicting a faulted entry reuses its file.
    assert cache.disk_bytes == written

    reference = OptimizerSession(catalog, database=database, executor="row")
    expected = [reference.execute_batch(batch).rows for batch in batches]
    for index, rows in enumerate(outputs):
        assert rows == expected[index % len(batches)]
