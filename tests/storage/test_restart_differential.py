"""The crash/restart differential harness for the durable cache tier.

The acceptance bar, asserted directly: run a mixed star batch workload
through a spilling :class:`~repro.service.session.OptimizerSession`, tear
the session down, rebuild it **from the spill directory alone** (the
database is regenerated from scratch, as a restarted process would), and
warm re-execution must yield

* bit-identical rows for every query,
* bit-identical chosen plan costs, and
* **zero re-materializations** — every materialized node is served from
  the recovered disk tier.

A separate case proves the same through eviction-driven spills alone (a
*crash*, no checkpoint, with a RAM budget far below the working set), and
the feedback half proves a restarted adaptive session is re-seeded with
everything the previous process learned.
"""

import pytest

from repro.adaptive.stats import FeedbackStatsStore, SnapshotError
from repro.service import BatchScheduler, OptimizerSession
from repro.storage import SpillConfig
from repro.workloads.synthetic import (
    random_star_batch,
    star_schema_catalog,
    star_schema_database,
)

N_DIMENSIONS = 4
SEEDS = (1, 2, 5)
#: Selective joins (only 1/KEY_FANOUT of the fact rows match a dimension)
#: make shared fact⋈dim subexpressions profitable to materialize, so the
#: workload actually exercises the spill tier (5 materialized nodes,
#: ~23 KB, largest ~11 KB — a 12 KB RAM budget forces evictions).
KEY_FANOUT = 4
FACT_ROWS = 600


@pytest.fixture(scope="module")
def star_catalog():
    return star_schema_catalog(n_dimensions=N_DIMENSIONS, key_fanout=KEY_FANOUT)


def fresh_database():
    """Regenerated per 'process': restart durability must not depend on the
    database *object* surviving — only on its content being the same."""
    return star_schema_database(
        seed=9, n_dimensions=N_DIMENSIONS, key_fanout=KEY_FANOUT, fact_rows=FACT_ROWS
    )


def spilling_session(catalog, spill_dir, *, database=None, **kwargs):
    return OptimizerSession(
        catalog,
        database=database if database is not None else fresh_database(),
        spill_dir=spill_dir,
        **kwargs,
    )


def traffic():
    return [
        random_star_batch(3, seed=seed, n_dimensions=N_DIMENSIONS) for seed in SEEDS
    ]


def run_workload(session):
    """Execute the mixed workload; returns (rows, costs, rematerializations)."""
    rows, costs, rematerialized = {}, {}, 0
    for batch in traffic():
        execution = session.execute_batch(batch, strategy="greedy")
        rows[batch.name] = execution.rows
        costs[batch.name] = (
            execution.result.total_cost,
            dict(execution.result.query_costs),
        )
        rematerialized += execution.materializations
    return rows, costs, rematerialized


class TestRestartDifferential:
    @pytest.mark.parametrize("executor", ["row", "columnar"])
    def test_rebuilt_session_serves_bit_identical_rows_with_zero_rematerializations(
        self, star_catalog, tmp_path, executor
    ):
        spill_dir = tmp_path / "spill"

        session = spilling_session(star_catalog, spill_dir, executor=executor)
        cold_rows, cold_costs, cold_materialized = run_workload(session)
        assert cold_materialized >= 1, "workload must exercise materialization"
        session.snapshot()  # planned shutdown: checkpoint hot entries + feedback
        del session

        reborn = spilling_session(star_catalog, spill_dir, executor=executor)
        assert reborn.matcache.statistics.recovered >= cold_materialized
        warm_rows, warm_costs, warm_materialized = run_workload(reborn)

        assert warm_rows == cold_rows, "restart must not change a single row"
        assert warm_costs == cold_costs, "restart must not change plan costs"
        assert warm_materialized == 0, (
            "a rebuilt session must serve every materialization from the disk tier"
        )
        stats = reborn.matcache.statistics
        assert stats.faults >= cold_materialized
        assert stats.stale_files_dropped == 0 and stats.corrupt_files_dropped == 0

    @pytest.mark.parametrize("executor", ["row", "columnar"])
    def test_restart_differential_against_a_never_restarted_session(
        self, star_catalog, tmp_path, executor
    ):
        """Differential against an independent reference: the restarted
        session must agree with a plain never-restarted, non-spilling
        session, not merely with its own previous life."""
        single = OptimizerSession(star_catalog, database=fresh_database())
        reference = {
            batch.name: single.execute_batch(batch, strategy="greedy").rows
            for batch in traffic()
        }

        spill_dir = tmp_path / "spill"
        session = spilling_session(star_catalog, spill_dir, executor=executor)
        run_workload(session)
        session.snapshot()
        del session
        reborn = spilling_session(star_catalog, spill_dir, executor=executor)
        warm_rows, _, warm_materialized = run_workload(reborn)
        assert warm_rows == reference
        assert warm_materialized == 0

    def test_restarted_columnar_session_gets_back_the_entries_key_indexes(
        self, star_catalog, tmp_path
    ):
        """Three cold passes buy a key index on a cached entry; the snapshot
        writes it beside the entry's rows, and the rebuilt session's fault
        restores it instead of building it — with the same rows."""
        spill_dir = tmp_path / "spill"
        session = spilling_session(star_catalog, spill_dir, executor="columnar")
        for _ in range(3):
            cold_rows, cold_costs, _ = run_workload(session)
        session.snapshot()
        del session

        reborn = spilling_session(star_catalog, spill_dir, executor="columnar")
        warm_rows, warm_costs, warm_materialized = run_workload(reborn)
        assert (warm_rows, warm_costs, warm_materialized) == (cold_rows, cold_costs, 0)
        assert reborn.matcache.key_indexes_restored.value >= 1

    def test_crash_without_snapshot_is_correct_and_partially_warm(
        self, star_catalog, tmp_path
    ):
        """No checkpoint (a crash): whatever eviction spilled is recovered;
        everything else is recomputed — correctness never depends on the
        snapshot having happened."""
        spill_dir = tmp_path / "spill"
        # A RAM budget far below the working set forces eviction-driven
        # spills while the workload runs (it still fits the largest single
        # entry, so no fill is rejected outright).
        config = SpillConfig(max_bytes=12 * 1024, max_entries=3)
        session = spilling_session(star_catalog, spill_dir, spill_config=config)
        cold_rows, cold_costs, cold_materialized = run_workload(session)
        spilled = session.matcache.statistics.spills
        assert cold_materialized >= 1
        assert spilled >= 1, "the tight RAM budget must force eviction spills"
        del session  # crash: no snapshot()

        reborn = spilling_session(star_catalog, spill_dir, spill_config=config)
        assert 1 <= reborn.matcache.statistics.recovered <= spilled
        warm_rows, warm_costs, _ = run_workload(reborn)
        assert warm_rows == cold_rows
        assert warm_costs == cold_costs

    def test_scheduler_shutdown_checkpoints_for_the_next_process(
        self, star_catalog, tmp_path
    ):
        """Closing a BatchScheduler over a spilling session is a planned
        shutdown: the next process starts warm without anyone having called
        snapshot() explicitly."""
        spill_dir = tmp_path / "spill"
        session = spilling_session(star_catalog, spill_dir)
        with BatchScheduler(session, strategy="greedy") as scheduler:
            futures = [
                scheduler.submit_batch(batch, execute=True) for batch in traffic()
            ]
            cold = {f.result(timeout=600).batch_name: f.result().rows for f in futures}
        del session

        reborn = spilling_session(star_catalog, spill_dir)
        warm_rows, _, warm_materialized = run_workload(reborn)
        assert warm_materialized == 0
        for name, rows in warm_rows.items():
            assert rows == cold[name]

    def test_restart_into_different_data_recomputes_everything(
        self, star_catalog, tmp_path
    ):
        """The negative control: same spill dir, *different* data — every
        recovered file is stale and the session must recompute, not serve
        the old rows."""
        spill_dir = tmp_path / "spill"
        session = spilling_session(star_catalog, spill_dir)
        _, _, cold_materialized = run_workload(session)
        assert cold_materialized >= 1
        session.snapshot()
        del session

        def changed_database():
            return star_schema_database(
                seed=10,
                n_dimensions=N_DIMENSIONS,
                key_fanout=KEY_FANOUT,
                fact_rows=FACT_ROWS,
            )

        reborn = spilling_session(star_catalog, spill_dir, database=changed_database())
        single = OptimizerSession(star_catalog, database=changed_database())
        for batch in traffic():
            warm = reborn.execute_batch(batch, strategy="greedy")
            reference = single.execute_batch(batch, strategy="greedy")
            assert warm.rows == reference.rows
        stats = reborn.matcache.statistics
        assert stats.faults == 0, "no stale file may ever be served"
        assert stats.stale_files_dropped >= 1


class TestFeedbackRestart:
    def test_restarted_adaptive_session_is_reseeded_with_learned_statistics(
        self, star_catalog, tmp_path
    ):
        spill_dir = tmp_path / "spill"
        session = spilling_session(star_catalog, spill_dir, adaptive=True)
        run_workload(session)
        learned = {key: session.feedback.get(key) for key in session.feedback.keys()}
        assert learned, "the workload must record observations"
        session.snapshot()
        del session

        reborn = spilling_session(star_catalog, spill_dir, adaptive=True)
        assert set(reborn.feedback.keys()) == set(learned)
        for key, entry in learned.items():
            restored = reborn.feedback.get(key)
            assert restored.rows == entry.rows
            assert restored.bytes == entry.bytes
            assert restored.elapsed == entry.elapsed
            assert restored.observations == entry.observations
            # Same data ⇒ same token ⇒ nothing decays on reattachment.
            assert reborn.feedback.confidence(key) == pytest.approx(
                same_epoch_confidence(entry, reborn.feedback)
            )
        assert reborn.feedback.token == reborn.matcache.token

    def test_restore_into_changed_data_decays_confidence(self, tmp_path):
        store = FeedbackStatsStore()
        store.ensure_token("data-v1")
        store.record("node-a", rows=100.0, bytes=800.0, elapsed=0.25)
        full_confidence = store.confidence("node-a")
        path = tmp_path / "feedback.json"
        store.snapshot(path)

        reborn = FeedbackStatsStore()
        reborn.restore(path)
        assert reborn.token == "data-v1"  # adopted from the snapshot
        # The restarted process discovers the data moved on: epoch bumps,
        # the restored observation decays into a prior instead of vanishing.
        assert reborn.ensure_token("data-v2")
        assert 0.0 < reborn.confidence("node-a") < full_confidence
        assert reborn.get("node-a").rows == 100.0

    def test_restore_into_a_store_bound_to_other_data_lags_entries(self, tmp_path):
        store = FeedbackStatsStore()
        store.ensure_token("data-v1")
        store.record("node-a", rows=10.0)
        path = tmp_path / "feedback.json"
        store.snapshot(path)

        other = FeedbackStatsStore()
        other.ensure_token("data-v2")
        other.record("node-b", rows=5.0)
        restored = other.restore(path)
        assert restored == 1
        assert other.confidence("node-a") < other.confidence("node-b")

    def test_live_entries_beat_snapshotted_ones(self, tmp_path):
        store = FeedbackStatsStore()
        store.ensure_token("tok")
        store.record("node-a", rows=10.0)
        path = tmp_path / "feedback.json"
        store.snapshot(path)

        live = FeedbackStatsStore()
        live.ensure_token("tok")
        live.record("node-a", rows=99.0)
        assert live.restore(path) == 0
        assert live.get("node-a").rows == 99.0

    def test_corrupt_snapshot_raises_snapshot_error(self, tmp_path):
        path = tmp_path / "feedback.json"
        for payload in (b"", b"not json", b'{"kind": "something-else"}', b'[1,2,3]'):
            path.write_bytes(payload)
            with pytest.raises(SnapshotError):
                FeedbackStatsStore().restore(path)

    def test_corrupt_snapshot_degrades_session_to_cold_start(
        self, star_catalog, tmp_path
    ):
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        (spill_dir / "feedback.json").write_text("{truncated", encoding="utf-8")
        session = spilling_session(star_catalog, spill_dir, adaptive=True)
        assert len(session.feedback) == 0  # empty store, not a crash
        rows, _, _ = run_workload(session)
        assert rows  # fully serviceable

    def test_snapshot_feedback_without_store_or_directory_writes_nothing(
        self, star_catalog, tmp_path
    ):
        plain = spilling_session(star_catalog, tmp_path / "spill")
        assert plain.feedback is None
        assert plain.snapshot_feedback() is None
        undirected = OptimizerSession(
            star_catalog, database=fresh_database(), adaptive=True
        )
        run_workload(undirected)
        assert undirected.snapshot_feedback() is None
        undirected.snapshot()  # no durable tier: a no-op, not an error
        assert not (tmp_path / "spill" / "feedback.json").exists()

    def test_snapshot_feedback_to_an_explicit_path_round_trips(
        self, star_catalog, tmp_path
    ):
        session = OptimizerSession(
            star_catalog, database=fresh_database(), adaptive=True
        )
        run_workload(session)
        path = session.snapshot_feedback(tmp_path / "elsewhere.json")
        assert path == tmp_path / "elsewhere.json"
        restored = FeedbackStatsStore()
        assert restored.restore(path) == len(session.feedback) > 0
        assert set(restored.keys()) == set(session.feedback.keys())

    def test_startup_sweeps_temp_files_of_an_interrupted_snapshot(
        self, star_catalog, tmp_path
    ):
        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        leftover = spill_dir / ".feedback-tmp-crashed"
        leftover.write_text("{half", encoding="utf-8")
        session = spilling_session(star_catalog, spill_dir, adaptive=True)
        assert not leftover.exists()
        assert len(session.feedback) == 0

    def test_restore_under_capacity_pressure_evicts_snapshot_entries_first(
        self, tmp_path
    ):
        """Regression: restored priors land at the LRU end, so when the
        merged store exceeds ``max_entries`` it is the snapshot's entries
        that go — never a measurement this process actually took."""
        store = FeedbackStatsStore()
        store.ensure_token("tok")
        for index in range(4):
            store.record(f"snap-{index}", rows=float(index))
        path = tmp_path / "feedback.json"
        store.snapshot(path)

        live = FeedbackStatsStore(max_entries=4)
        live.ensure_token("tok")
        live.record("live-a", rows=1.0)
        live.record("live-b", rows=2.0)
        live.restore(path)
        assert len(live) == 4
        assert live.get("live-a") is not None and live.get("live-b") is not None
        # The two surviving snapshot entries are the snapshot's own newest.
        assert live.get("snap-3") is not None and live.get("snap-2") is not None

    def test_snapshot_round_trips_epoch_lag(self, tmp_path):
        """An entry that was already one epoch stale when snapshotted must
        come back exactly one epoch stale."""
        store = FeedbackStatsStore()
        store.ensure_token("v1")
        store.record("old-node", rows=7.0)
        store.ensure_token("v2")  # old-node now lags by 1
        store.record("new-node", rows=3.0)
        path = tmp_path / "feedback.json"
        store.snapshot(path)

        reborn = FeedbackStatsStore()
        reborn.restore(path)
        assert reborn.confidence("old-node") == store.confidence("old-node")
        assert reborn.confidence("new-node") == store.confidence("new-node")


def same_epoch_confidence(entry, store):
    """The confidence the restored store reports for a same-epoch entry."""
    return 1.0 - (1.0 - store.ewma_alpha) ** entry.observations
