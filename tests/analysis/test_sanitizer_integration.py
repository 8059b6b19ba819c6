"""End-to-end sanitizer run: the serving stack under concurrent load.

Builds the full concurrent stack — one adaptive :class:`OptimizerSession`
with a spilling cache and its feedback store, fronted by a four-worker
:class:`BatchScheduler` — under ``REPRO_SANITIZE=1``, hammers it from
several submitter threads, and then asserts the recorded dynamics:

* the cross-thread lock-acquisition-order graph is **acyclic** (no
  potential deadlock was latent in the run);
* the spilling cache's known I/O-inside-the-lock critical section was
  actually observed and attributed to the ``spillcache`` lock;
* statically, no lock-guarded attribute of the serving components is
  touched without its lock (the lint checker over the service/storage
  sources is the machine-checked form of that claim).
"""

import threading
from pathlib import Path

import pytest

from repro.analysis import lint_paths, sanitizer_state
from repro.service import BatchScheduler, OptimizerSession
from repro.storage.spill import SpillConfig
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
N_DIMENSIONS = 4
N_SUBMITTERS = 4
#: Selective joins (1/KEY_FANOUT of the fact rows match a dimension) make
#: shared fact⋈dim subexpressions worth materializing, so the one session
#: fills more entries than its two-entry RAM tier holds.
KEY_FANOUT = 4


@pytest.fixture(autouse=True)
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitizer_state().reset()
    yield
    sanitizer_state().reset()


def test_spilling_session_under_load_has_acyclic_lock_order(tmp_path):
    catalog = star_schema_catalog(n_dimensions=N_DIMENSIONS, key_fanout=KEY_FANOUT)
    database = star_schema_database(
        seed=11, n_dimensions=N_DIMENSIONS, key_fanout=KEY_FANOUT, fact_rows=600
    )
    session = OptimizerSession(
        catalog,
        database=database,
        adaptive=True,
        spill_dir=tmp_path,
        # A two-entry RAM tier so executions overflow into spill files —
        # the run must exercise the known I/O-under-lock critical section.
        # (Entry budget, not byte budget: an over-byte-budget put is
        # rejected outright and would never reach the spill path.)
        spill_config=SpillConfig(max_bytes=4 * 1024 * 1024, max_entries=2),
    )
    queries = [
        query
        for seed in range(8)
        for query in random_star_batch(3, seed=seed, n_dimensions=N_DIMENSIONS)
    ]
    barrier = threading.Barrier(N_SUBMITTERS)
    submitted = []
    errors = []

    with BatchScheduler(
        session, max_batch_size=4, max_delay=0.05, workers=4, strategy="greedy"
    ) as scheduler:

        def submitter(chunk):
            try:
                barrier.wait(timeout=30)
                submitted.extend(
                    (q, scheduler.submit(q, execute=True)) for q in chunk
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        chunks = [queries[i::N_SUBMITTERS] for i in range(N_SUBMITTERS)]
        threads = [threading.Thread(target=submitter, args=(c,)) for c in chunks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        outcomes = [future.result(timeout=300) for _, future in submitted]

    assert len(outcomes) == len(queries)
    assert all(outcome.rows is not None for outcome in outcomes)

    state = sanitizer_state()
    report = state.report()

    # The run must actually have exercised the sanitized stack.
    assert report["acquisitions"], "no sanitized lock was ever acquired"
    assert any(
        role.startswith("session") for role in report["acquisitions"]
    ), report["acquisitions"]
    assert "spillcache" in report["acquisitions"], report["acquisitions"]

    # The one assertion that matters: no deadlock is latent in the order.
    assert state.cycles() == [], (
        "lock-order cycle detected:\n"
        + "\n".join("->".join(cycle) for cycle in state.cycles())
        + "\nedges: "
        + str(report["edge_examples"])
    )

    # The spilling cache's documented smell was observed and attributed.
    io_kinds = {kind for (_, kind) in state.io_events()}
    assert "spill.write" in io_kinds, report["io_under_lock"]
    assert all(
        "spillcache" in held for (held, _) in state.io_events()
    ), report["io_under_lock"]


def test_serving_components_have_static_lock_discipline():
    """No guarded attribute of the serving stack is touched unlocked."""
    report = lint_paths(
        [
            SRC / "service",
            SRC / "storage",
            SRC / "adaptive" / "stats.py",
            SRC / "obs" / "metrics.py",
        ],
        select=["lock-discipline"],
    )
    assert report.findings == [], [
        f.location() + " " + f.message for f in report.findings
    ]
