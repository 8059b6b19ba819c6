"""The per-version column images and key indexes a ``Database`` keeps.

``Database.column_image(table)`` transposes a table once per data version;
every ``TABLE_SCAN`` / ``INDEX_SCAN`` / ``INDEX_NL_JOIN`` inner of the
columnar backend is an alias-qualified view of it that shares its value
lists.  ``Database.key_index(values)`` maps one of those lists, by
identity, to its ``{value: ascending positions}`` index, which hash joins
probe.  These tests pin the lifecycle of both (they go stale with the same
version bump as the caches, live and die with their database, and a change
racing their construction is never cached under the new version) and the
immutability contract that makes sharing the lists safe.  The row executor
is the oracle throughout.
"""

import copy
import gc
import sys
import threading
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
    """The key index of a current image column, as plain lists."""
    index = db.key_index(db.column_image(name).columns[column])
    return {value: positions.tolist() for value, positions in index.items()}


# ---------------------------------------------------------------------------
# Staleness: the image follows the data version
# ---------------------------------------------------------------------------


def test_in_place_mutation_is_seen_after_touch():
    db = small_database()
    before = assert_backends_agree(db)
    image = db.column_image("t")
    index = db.key_index(image.columns["a"])
    assert index_of(db, "t", "a") == {0: [0, 3], 1: [1, 4], 2: [2, 5]}
    db.tables["t"][0]["b"] = 100
    db.tables["t"].append({"a": 0, "b": 1, "c": "new"})
    # Unannounced, the change is invisible to columnar scans (documented).
    assert db.column_image("t") is image
    assert db.key_index(image.columns["a"]) is index
    db.touch()
    assert db.column_image("t") is not image
    assert db.key_index(image.columns["a"]) is None
    assert index_of(db, "t", "a") == {0: [0, 3, 6], 1: [1, 4], 2: [2, 5]}
    assert_image_matches_table(db, "t")
    assert assert_backends_agree(db) != before


def test_add_table_and_replace_table_restale_the_image():
    db = small_database()
    assert_backends_agree(db)
    image = db.column_image("t")
    assert db.key_index(image.columns["a"]) is not None
    db.replace_table("t", [{"a": 2, "b": 9, "c": "r"}, {"a": 0, "b": 2, "c": "s"}])
    assert db.column_image("t") is not image
    assert db.key_index(image.columns["a"]) is None
    assert db.column_image("t").columns["c"] == ["r", "s"]
    assert index_of(db, "t", "a") == {2: [0], 0: [1]}
    assert_backends_agree(db)
    image = db.column_image("t")
    db.add_table("t", [{"a": 1, "b": 1, "c": "added"}])
    assert db.column_image("t") is not image
    assert db.key_index(image.columns["a"]) is None
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
    assert db.key_index(x.columns["x.a"]) is db.key_index(y.columns["y.a"])
    # A gathered copy holds equal values but is no image column.
    copied = x.take(range(x.length))
    assert copied.columns["x.a"] == image.columns["a"]
    assert db.key_index(copied.columns["x.a"]) is None
    assert set(db._images[2]) == {("t", "a")}
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

    old.column_image = stale_read
    session.attach_database(new)
    old.key_index = stale_read
    session.matcache.invalidate()  # same content, same token: force real scans
    assert session.execute_batch(batch).rows == expected
    assert new._images is not None
    assert new._images[2]  # the new object's joins probed its own indexes


def test_image_dies_with_its_database():
    db = small_database()
    assert_backends_agree(db)
    image = weakref.ref(db.column_image("t"))
    bucket = weakref.ref(db.key_index(db.column_image("t").columns["a"])[0])
    assert image() is not None and bucket() is not None
    del db
    gc.collect()
    assert image() is None
    assert bucket() is None


def test_image_is_not_part_of_equality_or_repr():
    a, b = small_database(), small_database()
    text = repr(a)
    a.column_image("t")
    a.key_index(a.column_image("t").columns["a"])
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
    raced = db.key_index(image.columns["k"])
    assert db.version == started + 1
    assert raced[1].tolist() == [0, 2] and raced[key].tolist() == [1]
    assert db._images is None or db._images[0] != db.version
    # The raced index went with its version: the old list is no image now.
    assert db.key_index(image.columns["k"]) is None
    rebuilt = db.key_index(db.column_image("k").columns["k"])
    assert rebuilt is not raced
    assert db._images[0] == db.version
    assert db.key_index(db.column_image("k").columns["k"]) is rebuilt


def test_key_index_beside_concurrent_image_builds():
    """Scheduler workers execute side by side and image tables lazily after
    every version bump: a ``key_index`` walking this version's images while
    another thread images more tables must neither fail nor miss."""
    db = Database({f"t{i}": [{"a": i}, {"a": i}] for i in range(200)})
    errors = []

    def probe(stop):
        while not stop.is_set():
            try:
                assert db.key_index([]) is None
            except Exception as error:  # reported below, in the main thread
                errors.append(error)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            db.touch()
            stop = threading.Event()
            worker = threading.Thread(target=probe, args=(stop,))
            worker.start()
            for name in db.tables:
                db.column_image(name)
            stop.set()
            worker.join()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert index_of(db, "t199", "a") == {199: [0, 1]}


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
    # The joins probed base-table indexes only: no cached materialization
    # (filled, hit or faulted back in) is an image column.
    indexes = dict(db._images[2])
    assert indexes
    for key in cache.keys():
        for values in cache.get_batch(key).columns.values():
            assert db.key_index(values) is None
    assert db._images[2] == indexes
