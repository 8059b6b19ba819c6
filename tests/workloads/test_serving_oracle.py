"""The serving stack's row-oracle gate: simulated traffic, checked rows.

Each setting of the matrix (1x and 4x star data, row and columnar
executors) replays one traffic trace — 120 requests from 16 Zipf-skewed
tenants (exponent 1.2), Poisson arrivals at 200 requests/s, seed 0 —
open-loop through one :class:`~repro.service.session.OptimizerSession`
behind a :class:`~repro.service.scheduler.BatchScheduler`.  At the
midpoint the scheduler drains and the fact table drifts
(:meth:`~repro.workloads.harness.scale.HarnessWorld.inject_drift`).  A
row :class:`~repro.workloads.harness.oracle.CorrectnessOracle` replays
the trace's 10 % sample after each half against the data version that
served it; a change that alters any answer, e.g. a cache that keeps
serving rows computed before the drift, fails here.
"""

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest

from repro.execution.data import Row
from repro.service.scheduler import BatchScheduler
from repro.service.session import OptimizerSession
from repro.workloads.harness import (
    CorrectnessOracle,
    ScaleSpec,
    TrafficSpec,
    build_world,
    generate_traffic,
    templates_for,
)

SCALES = (1.0, 4.0)
EXECUTORS = ("row", "columnar")
SETTINGS = [(scale, executor) for scale in SCALES for executor in EXECUTORS]
REQUESTS = 120
SEED = 0


@dataclass
class Served:
    """What serving the trace through one setting produced."""

    completed: int
    oracle: CorrectnessOracle
    drift_steps_applied: int
    statistics: Dict[str, int]
    sampled_rows: Dict[int, Optional[List[Row]]]

    def digest(self) -> str:
        """SHA-256 over the sampled rows' reprs: equal digests, equal answers."""
        digest = hashlib.sha256()
        for index in sorted(self.sampled_rows):
            digest.update(b"%d:%s;" % (index, repr(self.sampled_rows[index]).encode()))
        return digest.hexdigest()


def traffic():
    templates = templates_for("star", count=8, n_dimensions=4, seed=SEED)
    spec = TrafficSpec(
        requests=REQUESTS,
        tenants=16,
        zipf=1.2,
        arrival="poisson:200",
        oracle_sample=0.1,
        seed=SEED,
    )
    return generate_traffic(templates, spec)


def serve(scale: float, executor: str) -> Served:
    requests = traffic()
    world = build_world(ScaleSpec(scale=scale), "star", seed=SEED, max_drift_steps=1)
    session = OptimizerSession(world.catalog, database=world.database, executor=executor)
    oracle = CorrectnessOracle(world.catalog, world.database, serving_backend=executor)
    sampled: Dict[int, Optional[List[Row]]] = {}
    completed = 0
    halves = (requests[: REQUESTS // 2], requests[REQUESTS // 2 :])
    with BatchScheduler(session, workers=4, max_batch_size=4) as scheduler:
        started = time.monotonic()
        for half in halves:
            futures = []
            for request in half:
                # Open loop: each request goes in at its scheduled arrival,
                # however far behind the stack is.
                delay = started + request.arrival - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                futures.append(scheduler.submit(request.query, execute=True))
            for request, future in zip(half, futures):
                outcome = future.result(timeout=600)
                completed += 1
                if request.oracle:
                    sampled[request.index] = outcome.rows
            # Drain before verifying or drifting: the oracle must replay
            # against the data version that produced these rows.
            scheduler.flush(timeout=600)
            for request in half:
                if request.oracle:
                    oracle.verify(request, sampled.get(request.index))
            if half is halves[0]:
                world.inject_drift()
    return Served(
        completed=completed,
        oracle=oracle,
        drift_steps_applied=world.drift_steps_applied,
        statistics=session.statistics_snapshot(),
        sampled_rows=sampled,
    )


@pytest.fixture(scope="module")
def matrix():
    return {setting: serve(*setting) for setting in SETTINGS}


def setting_id(setting):
    scale, executor = setting
    return f"x{scale:g}-{executor}"


@pytest.mark.parametrize("setting", SETTINGS, ids=setting_id)
def test_every_request_completes(matrix, setting):
    assert matrix[setting].completed == REQUESTS


@pytest.mark.parametrize("setting", SETTINGS, ids=setting_id)
def test_row_oracle_checks_the_sample_and_finds_no_mismatch(matrix, setting):
    oracle = matrix[setting].oracle
    assert oracle.checked > 0
    assert oracle.mismatch_count == 0, oracle.mismatches


@pytest.mark.parametrize("setting", SETTINGS, ids=setting_id)
def test_exactly_one_drift_step_is_applied(matrix, setting):
    assert matrix[setting].drift_steps_applied == 1


@pytest.mark.parametrize("setting", SETTINGS, ids=setting_id)
def test_requests_are_micro_batched_through_one_session(matrix, setting):
    statistics = matrix[setting].statistics
    assert 0 < statistics["batches_executed"] <= statistics["queries_executed"] == REQUESTS


@pytest.mark.parametrize("scale", SCALES, ids=lambda scale: f"x{scale:g}")
def test_columnar_backend_serves_the_row_backend_digest(matrix, scale):
    assert matrix[(scale, "columnar")].digest() == matrix[(scale, "row")].digest()


def test_rerun_reproduces_the_sampled_rows_digest(matrix):
    again = serve(1.0, "row")
    assert again.oracle.mismatch_count == 0
    assert again.digest() == matrix[(1.0, "row")].digest()
