"""The per-version column images a ``Database`` keeps, and their key indexes.

``Database.column_image(table)`` transposes a table once per data version;
every ``TABLE_SCAN`` / ``INDEX_SCAN`` / ``INDEX_NL_JOIN`` inner of the
columnar backend is an alias-qualified view of it that shares its value
lists and its :class:`~repro.execution.columnar.batch.KeyIndex`, which maps
one of those lists, by identity, to its ``{value: positions}`` index for
hash joins to probe.  These tests pin the lifecycle of both (they go stale
with the same version bump as the caches, live and die with their database,
and a change racing their construction is never cached under the new
version) and the immutability contract that makes sharing the lists safe.
The row executor is the oracle throughout.  The holder's life on cached
materializations is pinned in ``test_key_index.py``.
"""

import copy
import gc
import weakref

from repro.algebra.expressions import col, eq, lt
from repro.execution import ColumnarExecutor, Executor
from repro.execution.columnar import ColumnBatch
from repro.execution.data import Database
from repro.optimizer.plan import PhysicalOp, PhysicalPlan
from repro.service import OptimizerSession
from repro.workloads.synthetic import (
    drifting_star_database,
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)


def plan(op, **kwargs):
    return PhysicalPlan(
        op=op, group=kwargs.pop("group", 0), cost=0.0, local_cost=0.0, rows=0.0,
        width=0.0, **kwargs,
    )


def scan(table, alias=None):
    return plan(PhysicalOp.TABLE_SCAN, table=table, alias=alias)


def self_join():
    """``t AS x ⋈ t AS y ON x.a = y.b`` plus an index scan and an
    index nested-loop inner over the same table."""
    join = plan(
        PhysicalOp.MERGE_JOIN,
        children=(scan("t", "x"), scan("t", "y")),
        predicate=eq(col("x.a"), col("y.b")),
    )
    return [
        scan("t", "x"),
        plan(PhysicalOp.INDEX_SCAN, table="t", alias="x", predicate=lt(col("x.b"), 3)),
        join,
        plan(
            PhysicalOp.INDEX_NL_JOIN,
            children=(scan("u"),),
            table="t",
            alias="x",
            predicate=eq(col("u.k"), col("x.a")),
        ),
    ]


def small_database():
    db = Database()
    db.add_table("t", [{"a": i % 3, "b": i, "c": f"c{i}"} for i in range(6)])
    db.add_table("u", [{"k": k} for k in (0, 2, 2, 5)])
    return db


def assert_backends_agree(db):
    """Every probe plan returns the same rows on both backends; returns them."""
    outputs = []
    for probe in self_join():
        expected = Executor(db).execute(probe)
        assert ColumnarExecutor(db).execute(probe) == expected
        outputs.append(expected)
    return outputs


def assert_image_matches_table(db, name):
    image = db.column_image(name)
    fresh = ColumnBatch.from_rows(db.table(name))
    assert image.columns == fresh.columns
    assert image.masks == fresh.masks
    assert image.length == fresh.length


def index_of(db, name, column):
    """The key index of a current image column, as ``{value: [positions]}``."""
    image = db.column_image(name)
    (unique, table), _ = image.key_index.lookup(image.columns[column], buy=True)
    return {value: [at] if unique else list(at) for value, at in table.items()}


def lookup(image, column):
    """What an image's holder answers for ``column`` (building it if missing)."""
    return image.key_index.lookup(column, buy=True)[0]


# ---------------------------------------------------------------------------
# Staleness: the image follows the data version
# ---------------------------------------------------------------------------


def test_in_place_mutation_is_seen_after_touch():
    db = small_database()
    before = assert_backends_agree(db)
    image = db.column_image("t")
    index = lookup(image, image.columns["a"])
    assert index_of(db, "t", "a") == {0: [0, 3], 1: [1, 4], 2: [2, 5]}
    db.tables["t"][0]["b"] = 100
    db.tables["t"].append({"a": 0, "b": 1, "c": "new"})
    # Unannounced, the change is invisible to columnar scans (documented).
    assert db.column_image("t") is image
    assert lookup(db.column_image("t"), image.columns["a"]) is index
    db.touch()
    assert db.column_image("t") is not image
    assert db.column_image("t").key_index is not image.key_index
    assert lookup(db.column_image("t"), image.columns["a"]) is None
    assert index_of(db, "t", "a") == {0: [0, 3, 6], 1: [1, 4], 2: [2, 5]}
    assert_image_matches_table(db, "t")
    assert assert_backends_agree(db) != before


def test_add_table_and_replace_table_restale_the_image():
    db = small_database()
    assert_backends_agree(db)
    image = db.column_image("t")
    assert lookup(image, image.columns["a"]) is not None
    db.replace_table("t", [{"a": 2, "b": 9, "c": "r"}, {"a": 0, "b": 2, "c": "s"}])
    assert db.column_image("t") is not image
    assert lookup(db.column_image("t"), image.columns["a"]) is None
    assert db.column_image("t").columns["c"] == ["r", "s"]
    assert index_of(db, "t", "a") == {2: [0], 0: [1]}
    assert_backends_agree(db)
    image = db.column_image("t")
    db.add_table("t", [{"a": 1, "b": 1, "c": "added"}])
    assert db.column_image("t") is not image
    assert lookup(db.column_image("t"), image.columns["a"]) is None
    assert index_of(db, "t", "a") == {1: [0]}
    assert_image_matches_table(db, "t")
    assert_backends_agree(db)


def test_drifting_star_step_is_seen_by_columnar_scans():
    kwargs = dict(n_dimensions=3, dimension_rows=12, key_fanout=2)
    catalog = star_schema_catalog(fact_rows=300, **kwargs)
    generator = drifting_star_database(3, seed=4, fact_rows=300, **kwargs)
    db = next(generator)
    batch = random_star_batch(3, seed=2, n_dimensions=3)
    columnar = OptimizerSession(catalog, database=db, executor="columnar")
    row = OptimizerSession(catalog, database=db, executor="row")
    seen = []
    for step in range(3):
        if step:
            next(generator)  # replace_table on the same object
        rows = columnar.execute_batch(batch).rows
        assert rows == row.execute_batch(batch).rows
        assert db.column_image("fact").length == len(db.table("fact"))
        seen.append(rows)
    assert seen[0] != seen[1] != seen[2]


# ---------------------------------------------------------------------------
# Views over the image
# ---------------------------------------------------------------------------


def test_self_join_aliases_share_the_image_lists():
    db = small_database()
    executor = ColumnarExecutor(db)
    x = executor._table_batch("t", "x", None)
    y = executor._table_batch("t", "y", None)
    assert list(x.columns) == ["x.a", "x.b", "x.c"]
    assert list(y.columns) == ["y.a", "y.b", "y.c"]
    image = db.column_image("t")
    for key in ("a", "b", "c"):
        assert x.columns[f"x.{key}"] is image.columns[key]
        assert y.columns[f"y.{key}"] is image.columns[key]
    assert x.key_index is y.key_index is image.key_index
    assert lookup(x, x.columns["x.a"]) is lookup(y, y.columns["y.a"])
    # A gathered copy holds equal values but is no image column.
    copied = x.take(range(x.length))
    assert copied.columns["x.a"] == image.columns["a"]
    assert copied.key_index is None
    assert lookup(image, copied.columns["x.a"]) is None
    assert set(image.key_index._built) == {"a"}
    assert_backends_agree(db)


def test_pruned_view_keeps_only_needed_columns():
    db = small_database()
    view = ColumnarExecutor(db)._table_batch("t", "x", frozenset({col("x.b")}))
    assert list(view.columns) == ["x.b"]
    assert view.length == 6


def test_heterogeneous_table_goes_through_masks():
    db = Database()
    # Every row has ``b`` (the index scan filters on it); ``a`` and ``c`` are
    # missing from some rows, and one row lists its keys in another order.
    db.add_table(
        "t",
        [
            {"a": 1, "b": 0},
            {"b": 3},
            {"b": 1, "c": "only"},
            {"a": None, "b": 2},
            {"b": 5, "a": 2},
            {"a": 1, "b": 1},
        ],
    )
    db.add_table("u", [{"k": 1}, {"k": 2}, {"k": None}])
    image = db.column_image("t")
    assert list(image.columns) == ["a", "b", "c"]
    assert image.masks["a"] == [True, False, False, True, True, True]
    assert image.masks["c"] == [False, False, True, False, False, False]
    assert "b" not in image.masks
    assert image.to_rows() == db.table("t")
    view = ColumnarExecutor(db)._table_batch("t", "x", None)
    assert view.masks["x.a"] is image.masks["a"]
    assert assert_backends_agree(db)[0] == [
        {f"x.{k}": v for k, v in row.items()} for row in db.table("t")
    ]


def test_empty_table():
    db = Database()
    db.add_table("t", [])
    db.add_table("u", [{"k": 1}])
    assert len(db.column_image("t")) == 0
    assert_backends_agree(db)


# ---------------------------------------------------------------------------
# Ownership and lifetime
# ---------------------------------------------------------------------------


def test_attach_database_never_reads_the_old_objects_image():
    catalog = star_schema_catalog(n_dimensions=3, key_fanout=2)
    old = star_schema_database(fact_rows=200, seed=3, n_dimensions=3, key_fanout=2)
    new = star_schema_database(fact_rows=200, seed=3, n_dimensions=3, key_fanout=2)
    assert old == new and old is not new
    batch = random_star_batch(3, seed=5, n_dimensions=3)
    session = OptimizerSession(catalog, database=old, executor="columnar")
    expected = session.execute_batch(batch).rows
    assert old._images is not None

    def stale_read(name):
        raise AssertionError(f"read the detached database's image of {name!r}")

    class StaleHolder:
        def lookup(self, *args, **kwargs):
            raise AssertionError("probed the detached database's key index")

    old.column_image = stale_read
    session.attach_database(new)
    for image in old._images[1].values():
        image.key_index = StaleHolder()
    session.matcache.invalidate()  # same content, same token: force real scans
    assert session.execute_batch(batch).rows == expected
    assert new._images is not None
    # The new object's joins probed its own indexes.
    assert any(image.key_index._built for image in new._images[1].values())


def test_image_dies_with_its_database():
    db = small_database()
    assert_backends_agree(db)
    image = weakref.ref(db.column_image("t"))
    holder = weakref.ref(db.column_image("t").key_index)
    assert index_of(db, "t", "a")
    assert image() is not None and holder() is not None
    del db
    gc.collect()
    assert image() is None
    assert holder() is None


def test_image_is_not_part_of_equality_or_repr():
    a, b = small_database(), small_database()
    text = repr(a)
    a.column_image("t")
    assert index_of(a, "t", "a")
    assert a == b
    assert repr(a) == text


def test_touch_racing_the_transpose_is_not_cached_under_the_new_version():
    """The same race against the column image, then against a key index."""
    db = small_database()

    class TouchingRows(list):
        """Iterating the first time mutates a row and announces it — a
        writer landing in the middle of the transpose."""

        hook = True

        def __iter__(self):
            if self.hook:
                self.hook = False
                self[0]["c"] = "raced"
                db.touch()
            return super().__iter__()

    db.tables["t"] = TouchingRows(db.tables["t"])
    db.touch()
    started = db.version
    raced = db.column_image("t")
    assert db.version == started + 1
    assert db._images is None or db._images[0] != db.version
    rebuilt = db.column_image("t")
    assert rebuilt is not raced
    assert db._images[0] == db.version
    assert rebuilt.columns["c"][0] == "raced"
    assert db.column_image("t") is rebuilt

    class TouchingKey:
        """Hashing it the first time announces a change — a writer landing
        in the middle of the index build."""

        hook = True

        def __hash__(self):
            if self.hook:
                self.hook = False
                db.touch()
            return 0

    key = TouchingKey()
    db.add_table("k", [{"k": 1}, {"k": key}, {"k": 1}])
    image = db.column_image("k")
    started = db.version
    raced = lookup(image, image.columns["k"])
    assert db.version == started + 1
    # Built over the image's own (immutable) list, so it is right for it...
    assert not raced[0]
    assert {value: list(at) for value, at in raced[1].items()} == {1: [0, 2], key: [1]}
    assert db._images is None or db._images[0] != db.version
    # ...and it went with its version: the new image has its own holder.
    rebuilt_image = db.column_image("k")
    assert rebuilt_image is not image
    assert rebuilt_image.key_index._built == {}
    rebuilt = lookup(rebuilt_image, rebuilt_image.columns["k"])
    assert rebuilt is not raced
    assert db._images[0] == db.version
    assert lookup(db.column_image("k"), db.column_image("k").columns["k"]) is rebuilt


# ---------------------------------------------------------------------------
# Immutability: shared lists are never written
# ---------------------------------------------------------------------------


def test_images_survive_fills_hits_spills_faults_and_result_mutation(tmp_path):
    """The ``exec_spill`` recipe at ``--tiny`` size (fills, hits, spills and
    faults), checking every image after each pass, then poisoning every row
    dict ``execute_batch`` hands out."""
    catalog = star_schema_catalog(n_dimensions=4, key_fanout=16)
    db = star_schema_database(fact_rows=2_000, seed=1, n_dimensions=4, key_fanout=16)
    batches = [random_star_batch(3, seed=s, n_dimensions=4) for s in (1, 4, 7)]
    session = OptimizerSession(catalog, database=db, executor="columnar", spill_dir=tmp_path)
    for batch in batches:
        session.execute_batch(batch)
    images = {name: db.column_image(name) for name in db.tables}
    cache = session.matcache
    cache.max_bytes = cache.current_bytes // 2
    cache.invalidate()
    before = cache.statistics_snapshot()

    def check_images():
        for name, image in images.items():
            assert db.column_image(name) is image
            assert_image_matches_table(db, name)

    outputs = []
    for _ in range(4):
        outputs.append([session.execute_batch(batch).rows for batch in batches])
        check_images()
    after = cache.statistics_snapshot()
    assert all(after[k] > before[k] for k in ("fills", "hits", "spills", "faults"))

    kept = copy.deepcopy(outputs[-1])
    for pass_rows in outputs:
        for rows in pass_rows:
            for query_rows in rows.values():
                for row in query_rows:
                    for key in row:
                        row[key] = "poison"
    check_images()
    again = [session.execute_batch(batch).rows for batch in batches]
    assert again == kept
    cache.invalidate()  # recompute from the images, not from cached batches
    assert [session.execute_batch(batch).rows for batch in batches] == kept
    check_images()
    # Base-table indexes were built, and no cached materialization (filled,
    # hit or faulted back in) is an image column: each carries a holder of
    # its own.
    built = {name: dict(image.key_index._built) for name, image in images.items()}
    assert any(built.values())
    for key in cache.keys():
        cached = cache.get_batch(key)
        assert cached.key_index is not None
        for values in cached.columns.values():
            for image in images.values():
                assert image.key_index.lookup(values, buy=True) == (None, False)
    assert {name: image.key_index._built for name, image in images.items()} == built
