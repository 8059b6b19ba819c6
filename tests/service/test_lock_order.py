"""The serving stack's locks under concurrent load.

One adaptive :class:`OptimizerSession` with its cache (spilling, or in
memory on each backend) and its feedback store, behind a four-worker
:class:`BatchScheduler`, is driven by four submitter threads and a
flusher.  Its locks are wrapped, after construction, in a recorder that
notes which locks a thread holds when it takes another.  The order graph must be acyclic: a cycle is a deadlock
waiting for the wrong interleaving.  The recorder itself is checked first,
on bare locks, so an acyclic graph means the load had none.

Each class that keeps multi-counter statistics under a lock must also hand
out snapshots that are never torn: writers change several counters in one
critical section while a reader checks an invariant that holds between
critical sections only.
"""

import sys
import threading
from contextlib import contextmanager

import pytest

from repro.adaptive import FeedbackStatsStore
from repro.dag.fingerprint import RelationSignature
from repro.service import BatchScheduler, MaterializationCache, OptimizerSession
from repro.service.matcache import cache_key
from repro.storage.spill import SpillConfig, SpillingMaterializationCache
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)

N_DIMENSIONS = 4
N_SUBMITTERS = 4
#: Selective joins (1/KEY_FANOUT of the fact rows match a dimension) make
#: shared fact⋈dim subexpressions worth materializing, so the one session
#: fills more entries than its two-entry RAM tier holds.
KEY_FANOUT = 4
TIMEOUT = 120


class LockOrder:
    """Edges ``held -> taken`` between named locks, over all threads."""

    def __init__(self):
        self.edges = set()
        self._edges_lock = threading.Lock()
        self._local = threading.local()

    def stack(self):
        if not hasattr(self._local, "held"):
            self._local.held = []
        return self._local.held

    def cyclic_nodes(self):
        """Nodes left after peeling off every node with no incoming edge."""
        edges = set(self.edges)
        while True:
            targets = {b for _, b in edges}
            kept = {(a, b) for a, b in edges if a in targets}
            if kept == edges:
                return sorted(targets)
            edges = kept


class Recorded:
    def __init__(self, order, lock, name):
        self.order, self.lock, self.name = order, lock, name

    def __enter__(self):
        held = self.order.stack()
        with self.order._edges_lock:
            self.order.edges.update((h, self.name) for h in held if h != self.name)
        self.lock.__enter__()
        held.append(self.name)
        return self

    def __exit__(self, *exc_info):
        self.order.stack().pop()
        return self.lock.__exit__(*exc_info)


def recorded(order, *names, lock=threading.Lock):
    return [Recorded(order, lock(), name) for name in names]


def in_thread(target):
    run_threads([target])


def test_recorder_notes_an_edge_from_each_held_lock_to_the_one_taken():
    order = LockOrder()
    a, b, c = recorded(order, "a", "b", "c")
    with a, b, c:
        pass
    assert order.edges == {("a", "b"), ("a", "c"), ("b", "c")}
    assert order.cyclic_nodes() == []


def test_recorder_adds_no_self_edge_for_rlock_reentry():
    order = LockOrder()
    (a,) = recorded(order, "a", lock=threading.RLock)
    with a, a:
        pass
    assert order.edges == set()


def test_recorder_finds_an_order_inverted_across_threads():
    order = LockOrder()
    a, b = recorded(order, "a", "b")

    def forward():
        with a, b:
            pass

    def backward():
        with b, a:
            pass

    in_thread(forward)  # one after the other: the inversion is found
    in_thread(backward)  # without ever running into the deadlock
    assert order.cyclic_nodes() == ["a", "b"]


def test_recorder_finds_a_cycle_through_three_locks():
    order = LockOrder()
    a, b, c = recorded(order, "a", "b", "c")
    for first, second in ((a, b), (b, c), (c, a)):
        with first, second:
            pass
    assert ("a", "c") not in order.edges
    assert order.cyclic_nodes() == ["a", "b", "c"]


def test_recorder_keeps_what_each_thread_holds_apart():
    order = LockOrder()
    a, b = recorded(order, "a", "b")
    holding = threading.Event()
    done = threading.Event()

    def holder():
        with a:
            holding.set()
            assert done.wait(timeout=TIMEOUT)

    thread = threading.Thread(target=holder, daemon=True)
    thread.start()
    try:
        assert holding.wait(timeout=TIMEOUT)
        with b:  # this thread holds nothing, whatever the other one holds
            pass
    finally:
        done.set()
        thread.join(timeout=TIMEOUT)
    assert not thread.is_alive()
    assert order.edges == set()


def test_recorder_releases_and_forgets_a_lock_left_by_an_exception():
    order = LockOrder()
    a, b = recorded(order, "a", "b")
    with pytest.raises(RuntimeError):
        with a:
            raise RuntimeError
    assert order.stack() == []
    assert a.lock.acquire(blocking=False)
    a.lock.release()
    with b:
        pass
    assert order.edges == set()


def star_world(**session_kwargs):
    catalog = star_schema_catalog(n_dimensions=N_DIMENSIONS, key_fanout=KEY_FANOUT)
    database = star_schema_database(
        seed=11, n_dimensions=N_DIMENSIONS, key_fanout=KEY_FANOUT, fact_rows=600
    )
    session = OptimizerSession(catalog, database=database, **session_kwargs)
    queries = [
        query
        for seed in range(8)
        for query in random_star_batch(3, seed=seed, n_dimensions=N_DIMENSIONS)
    ]
    return session, queries


def run_threads(targets):
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=TIMEOUT)
        assert not thread.is_alive(), "a thread is still running: deadlock?"


def submit_concurrently(scheduler, queries, *, execute, also=()):
    """Submit ``queries`` from N_SUBMITTERS threads (plus ``also``)."""
    barrier = threading.Barrier(N_SUBMITTERS)
    futures = []
    errors = []

    def submitter(chunk):
        try:
            barrier.wait(timeout=TIMEOUT)
            futures.extend(scheduler.submit(q, execute=execute) for q in chunk)
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    chunks = [queries[i::N_SUBMITTERS] for i in range(N_SUBMITTERS)]
    run_threads([lambda c=c: submitter(c) for c in chunks] + list(also))
    assert not errors
    return [future.result(timeout=TIMEOUT) for future in futures]


def record_serving_locks(session, scheduler, *, cache_name):
    """Wrap the session's, its cache's, its feedback store's, its SQL
    executor's (if any) and the scheduler's locks in one recorder."""
    order = LockOrder()
    session._lock = Recorded(order, session._lock, "session")
    session.matcache._lock = Recorded(order, session.matcache._lock, cache_name)
    session.feedback._lock = Recorded(order, session.feedback._lock, "feedback")
    if hasattr(session._executor, "_lock"):
        session._executor._lock = Recorded(order, session._executor._lock, "executor")
    scheduler._state_lock = Recorded(order, scheduler._state_lock, "scheduler.state")
    scheduler._pending_lock = Recorded(order, scheduler._pending_lock, "scheduler.pending")
    return order


def test_spilling_session_under_load_has_acyclic_lock_order(tmp_path):
    session, queries = star_world(
        adaptive=True,
        spill_dir=tmp_path,
        # A two-entry RAM tier so executions overflow into spill files.
        # (Entry budget, not byte budget: an over-byte-budget put is
        # rejected outright and would never reach the spill path.)
        spill_config=SpillConfig(max_bytes=4 * 1024 * 1024, max_entries=2),
    )
    scheduler = BatchScheduler(
        session, max_batch_size=4, max_delay=0.05, workers=4, strategy="greedy"
    )
    order = record_serving_locks(session, scheduler, cache_name="spillcache")
    try:
        outcomes = submit_concurrently(
            scheduler,
            queries,
            execute=True,
            also=[lambda: scheduler.flush(timeout=TIMEOUT)],
        )
    finally:
        run_threads([scheduler.close])

    assert len(outcomes) == len(queries)
    assert all(outcome.rows is not None for outcome in outcomes)
    assert session.matcache.statistics.spills > 0
    # The load reaches the spilling cache from inside the session lock.
    assert ("session", "spillcache") in order.edges, order.edges
    assert order.cyclic_nodes() == [], sorted(order.edges)


@pytest.mark.parametrize(
    "executor, reached",
    [
        ("columnar", {("session", "matcache")}),
        ("row", {("session", "matcache")}),
        ("sqlite", {("session", "matcache"), ("executor", "matcache")}),
    ],
)
def test_adaptive_session_under_load_has_acyclic_lock_order(executor, reached):
    """The in-memory cache with its feedback-driven policy, on each backend
    that runs without an optional dependency (SQLite's executor keeps a lock
    of its own and fills the cache while holding it)."""
    session, queries = star_world(adaptive=True, executor=executor)
    scheduler = BatchScheduler(
        session, max_batch_size=4, max_delay=0.05, workers=4, strategy="greedy"
    )
    order = record_serving_locks(session, scheduler, cache_name="matcache")
    try:
        outcomes = submit_concurrently(
            scheduler,
            queries,
            execute=True,
            also=[lambda: scheduler.flush(timeout=TIMEOUT)],
        )
    finally:
        run_threads([scheduler.close])

    assert len(outcomes) == len(queries)
    assert all(outcome.rows is not None for outcome in outcomes)
    assert session.matcache.statistics.fills > 0
    assert session.feedback.statistics.records > 0
    assert reached <= order.edges, sorted(order.edges)
    assert order.cyclic_nodes() == [], sorted(order.edges)


def test_statistics_snapshot_is_never_torn_under_scheduler_traffic():
    """Every optimize serves one batch that was either cached or prepared;
    a snapshot from another thread must never see one without the other."""
    session, queries = star_world()
    stop = threading.Event()
    torn = []

    def reader():
        while not stop.is_set():
            snap = session.statistics_snapshot()
            if snap["batches_served"] != snap["batch_cache_hits"] + snap["batches_prepared"]:
                torn.append(snap)

    watcher = threading.Thread(target=reader, daemon=True)
    watcher.start()
    scheduler = BatchScheduler(
        session, max_batch_size=2, max_delay=0.01, workers=4, strategy="greedy"
    )
    try:
        submit_concurrently(scheduler, queries + queries, execute=False)
    finally:
        run_threads([scheduler.close])
        stop.set()
        watcher.join(timeout=TIMEOUT)
    assert not watcher.is_alive()
    assert session.statistics_snapshot()["batches_served"] > 0
    assert torn == []


@contextmanager
def tight_switching():
    """Switch threads as often as the interpreter allows, so a reader lands
    inside a writer's critical section whenever the snapshot lets it."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def torn_snapshots(snapshot, holds, writers):
    """Snapshots that break ``holds``, taken while ``writers`` run."""
    done = threading.Event()
    torn = []

    def reader():
        while not done.is_set():
            snap = snapshot()
            if not holds(snap):
                torn.append(snap)

    watcher = threading.Thread(target=reader, daemon=True)
    with tight_switching():
        watcher.start()
        try:
            run_threads(writers)
        finally:
            done.set()
            watcher.join(timeout=TIMEOUT)
    assert not watcher.is_alive()
    assert holds(snapshot())
    return torn


def fresh_keys(prefix, n_threads, per_thread):
    """Per writer thread, cache keys that no other thread puts."""
    return [
        [cache_key(RelationSignature(f"{prefix}{i}_{j}", "x")) for j in range(per_thread)]
        for i in range(n_threads)
    ]


ROWS = [{"x.v": 1}]
#: Writes per writer thread in the in-memory torn-read tests.
WRITES = 3000


def filled_cache_writers(cache, capacity, per_thread):
    """Fill ``capacity`` entries, then writers that each put fresh keys:
    every later put evicts exactly one entry."""
    for prefill in fresh_keys("prefill", 1, capacity)[0]:
        assert cache.put(prefill, ROWS)
    return [
        lambda keys=keys: [cache.put(k, ROWS) for k in keys]
        for keys in fresh_keys("w", N_SUBMITTERS, per_thread)
    ]


def test_matcache_statistics_snapshot_is_never_torn():
    """A fill evicts its victim before it is counted; a snapshot must see
    both counters of a put or neither."""
    cache = MaterializationCache(max_entries=2)
    writers = filled_cache_writers(cache, 2, per_thread=WRITES)
    torn = torn_snapshots(
        cache.statistics_snapshot,
        lambda s: s["fills"] - s["evictions"] == 2,
        writers,
    )
    assert cache.statistics.evictions == N_SUBMITTERS * WRITES
    assert torn == []


def test_spill_cache_statistics_snapshot_is_never_torn(tmp_path):
    """Every eviction of a fresh key writes one spill file (or counts an
    error), in the same critical section as the fill that caused it."""
    cache = SpillingMaterializationCache(tmp_path, max_entries=2)
    writers = filled_cache_writers(cache, 2, per_thread=40)
    torn = torn_snapshots(
        cache.statistics_snapshot,
        lambda s: s["fills"] - s["evictions"] == 2
        and s["evictions"] == s["spills"] + s["spill_errors"],
        writers,
    )
    assert cache.statistics.spills == N_SUBMITTERS * 40
    assert torn == []


def test_feedback_statistics_snapshot_is_never_torn():
    """Recording a fresh fingerprint into a full store counts the record
    and the eviction it forces together."""
    store = FeedbackStatsStore(max_entries=4)
    for n in range(4):
        store.record(f"prefill{n}", rows=1)

    def writer(i):
        for n in range(WRITES):
            store.record(f"w{i}_{n}", rows=n)

    torn = torn_snapshots(
        store.statistics_snapshot,
        lambda s: s["records"] - s["evictions"] == 4,
        [lambda i=i: writer(i) for i in range(N_SUBMITTERS)],
    )
    assert store.statistics.evictions == N_SUBMITTERS * WRITES
    assert torn == []

