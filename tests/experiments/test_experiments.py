"""Tests for the experiment harness (reduced configurations).

These run the same code paths as the full figure benchmarks but on small
configurations so the unit-test suite stays fast.
"""

import pytest

from repro.experiments import runner
from repro.experiments.example1 import run_example1
from repro.experiments.experiment1 import run_experiment1
from repro.experiments.experiment2 import run_experiment2
from repro.experiments.reporting import ResultTable, format_seconds
from repro.experiments.theory import run_theory_experiment


class TestReporting:
    def test_table_rendering(self):
        table = ResultTable("Demo", ["name", "value"])
        table.add_row("a", 1.5)
        table.add_row("b", None)
        text = table.to_text()
        assert "Demo" in text and "a" in text
        markdown = table.to_markdown()
        assert markdown.count("|") > 4
        csv_text = table.to_csv()
        assert csv_text.splitlines()[0] == "name,value"

    def test_row_arity_checked(self):
        table = ResultTable("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_format_seconds(self):
        assert format_seconds(123.4) == "123"
        assert format_seconds(12.34) == "12.3"
        assert format_seconds(0.1234) == "0.123"


class TestExample1:
    def test_sharing_wins_and_uses_b_join_c(self):
        outcome = run_example1()
        assert outcome.sharing_wins
        assert outcome.shares_b_join_c
        table = outcome.table()
        assert len(table.rows) == 2


class TestExperiment1:
    @pytest.fixture(scope="class")
    def results(self):
        return run_experiment1(scale_factors=(1.0,), max_batches=1)

    def test_rows_cover_all_strategies(self, results):
        strategies = {row.strategy for row in results.rows}
        assert strategies == {"volcano", "greedy", "marginal-greedy"}

    def test_mqo_never_worse_than_volcano(self, results):
        volcano = {r.batch: r.estimated_cost_s for r in results.rows if r.strategy == "volcano"}
        for row in results.rows:
            assert row.estimated_cost_s <= volcano[row.batch] + 1e-6

    def test_figure_tables(self, results):
        fig4a = results.figure_4a()
        assert "BQ1" in [row[0] for row in fig4a.rows]
        fig4c = results.figure_4c()
        assert len(fig4c.rows) == 1

    def test_improvement_property(self, results):
        for row in results.rows:
            assert 0.0 <= row.improvement < 1.0

    def test_efficiency_table(self, results):
        variants = {(row.strategy, row.lazy) for row in results.efficiency}
        assert variants == {
            (strategy, lazy)
            for strategy in ("greedy", "marginal-greedy")
            for lazy in (True, False)
        }
        for row in results.efficiency:
            assert row.matches_full
            assert row.full_evaluations == 1
            assert row.best_cost_calls == (
                row.result_cache_hits + row.full_evaluations + row.incremental_evaluations
            )
            assert row.dp_entries_reused > row.dp_entries_recomputed > 0
        table = results.efficiency_table()
        assert results.tables()[-1].title == table.title
        assert all(cells[-1] == "yes" for cells in table.rows)

    def test_100gb_scale_costs_are_positive(self):
        results = run_experiment1(scale_factors=(100.0,), max_batches=1)
        assert {row.strategy for row in results.rows} == {"volcano", "greedy", "marginal-greedy"}
        assert all(row.estimated_cost_s > 0 for row in results.rows)


class TestExperiment2:
    @pytest.fixture(scope="class")
    def results(self):
        return run_experiment2(scale_factors=(1.0,), workloads=("Q2", "Q2-D", "Q11", "Q15"))

    def test_workload_selection(self, results):
        assert {r.workload for r in results.rows} == {"Q2", "Q2-D", "Q11", "Q15"}

    def test_no_strategy_worse_than_volcano(self, results):
        volcano = {r.workload: r.estimated_cost_s for r in results.rows if r.strategy == "volcano"}
        for row in results.rows:
            assert row.estimated_cost_s <= volcano[row.workload] + 1e-6, row

    def test_sharing_found_for_q15(self, results):
        q15_rows = [r for r in results.rows if r.workload == "Q15" and r.strategy != "volcano"]
        assert any(r.materialized_nodes >= 1 for r in q15_rows)

    def test_tables(self, results):
        assert results.figure_5a().rows
        assert results.figure_5c().rows

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_experiment2(scale_factors=(1.0,), workloads=("QX",))


class TestTheory:
    def test_bounds_hold(self):
        results = run_theory_experiment(n_random_instances=4, n_perfect_instances=2)
        assert results.all_bounds_satisfied
        assert 0.9 <= results.mean_achieved_ratio <= 1.0 + 1e-9
        table = results.table()
        assert len(table.rows) == 6


class TestCommandLine:
    def test_quick_run_writes_every_table(self, tmp_path, monkeypatch):
        """``python -m repro.experiments --quick --quiet --output FILE`` runs
        every experiment and writes each table it printed to the markdown."""
        produced = []
        real_run_all = runner.run_all

        def recording_run_all(**kwargs):
            tables = real_run_all(**kwargs)
            produced.extend(tables)
            return tables

        monkeypatch.setattr(runner, "run_all", recording_run_all)
        output = tmp_path / "figures.md"
        assert runner.main(["--quick", "--quiet", "--output", str(output)]) == 0
        markdown = output.read_text(encoding="utf-8")
        titles = [table.title for table in produced]
        assert len(titles) >= 6
        assert any(title.startswith("Efficiency of bestCost") for title in titles)
        for title in titles:
            assert f"### {title}\n" in markdown
