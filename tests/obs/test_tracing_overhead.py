"""Disabled tracing is free: the serving path stays near the bare executor.

The floor is a bare :class:`~repro.execution.ColumnarExecutor` call with
the materialization-cache hits fetched beforehand — no session, no
observability calls at all.  Against it runs the path a default session
takes (:data:`~repro.obs.NULL_TRACER`): ``session.execute_plans`` on the
same fully cached TPC-D composite batch, which on top of the floor only
looks up its cache hits, bumps the session counters and records one
latency observation.  On a 2-core x86-64 VM, where a warm iteration takes
~6.5 ms, it measures a median +0.2 % over the floor (60 measurements under
load, quartiles −2.8 % and +2.0 %); a 5 % busy-wait in ``NullTracer.span``
reads +3 % to +10 %.

Timing alternates single iterations of the two calls and keeps each one's
best: one load burst alone exceeds the bound, so both must share the same
quiet windows.  Load can only inflate a best-of, never deflate it, so one
measurement above the bound is noise and the test fails only when every
one of :data:`ATTEMPTS` consecutive measurements is.  A trace function
(coverage, a debugger) taxes the session's Python bookkeeping far more
than the executor's builtin-heavy loops, so the timing is skipped under one.
"""

import gc
import sys
import time

import pytest

from repro.catalog.tpcd import tpcd_catalog
from repro.execution import ColumnarExecutor, tiny_tpcd_database
from repro.obs import NULL_TRACER
from repro.service import OptimizerSession
from repro.service.matcache import cache_key
from repro.workloads.batches import composite_batch

MAX_OVERHEAD = 0.02
ROUNDS = 40
ATTEMPTS = 3


@pytest.fixture(scope="module")
def warm():
    """A default (untraced) columnar session with BQ2 fully cached."""
    database = tiny_tpcd_database(seed=11, orders=4000)
    session = OptimizerSession(tpcd_catalog(1.0), executor="columnar", database=database)
    result = session.optimize(composite_batch(2))
    assert session.execute_plans(result).materializations > 0
    return session, result


def best_of_alternating(calls):
    """Best single-iteration time of each call, the call order rotating."""
    best = [float("inf")] * len(calls)
    for round_index in range(ROUNDS):
        gc.collect()
        for offset in range(len(calls)):
            index = (round_index + offset) % len(calls)
            started = time.perf_counter()
            calls[index]()
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def disabled_overhead(session, result) -> float:
    """``session.execute_plans`` over the bare executor, minus one."""
    plan = result.plan
    hits = {
        gid: session.matcache.get_batch(cache_key(session.memo.signature_of(gid), mat_plan.order))
        for gid, mat_plan in plan.materialization_plans.items()
    }
    assert all(value is not None for value in hits.values())
    executor = ColumnarExecutor(session.database)
    floor, disabled = best_of_alternating(
        [
            lambda: executor.execute_result(plan, materialized=dict(hits)),
            lambda: session.execute_plans(result),
        ]
    )
    return disabled / floor - 1.0


@pytest.mark.skipif(
    sys.gettrace() is not None, reason="a trace function distorts the timing"
)
def test_disabled_tracing_stays_near_the_bare_executor(warm):
    session, result = warm
    assert session.obs.tracer is NULL_TRACER
    overheads = []
    for _ in range(ATTEMPTS):
        overheads.append(disabled_overhead(session, result))
        if overheads[-1] <= MAX_OVERHEAD:
            break
    else:
        pytest.fail(
            "disabled tracing costs "
            + ", ".join(f"{o:+.1%}" for o in overheads)
            + f" over the bare executor ({ATTEMPTS} measurements in a row "
            f"above {MAX_OVERHEAD:.0%})"
        )
    assert session.execute_plans(result).materializations == 0
