"""Tier-1 smoke for the benchmark: all four workloads at the built-in tiny size.

Runs in-process (untraced + traced) and checks what the benchmark promises:
every workload and metric named in ``BENCHMARK.json`` is emitted under a
well-formed name, no operation fails, the traced layers cover the operations,
same-seed runs repeat their counts and digests exactly, and a corrupted
reference row turns into ``failed > 0`` and a non-zero exit.
"""

import json
import re

import pytest

from . import cli, workloads
from .runner import measure, spec

SEED = 3
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOAD_NAMES = [workload["name"] for workload in spec()["workloads"]]
EXACT = {
    metric["name"]
    for metric in spec()["per_layer"]
    if metric["unit"] != "s" and not metric["name"].startswith("trace.")
}


def _values(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


@pytest.fixture(scope="module")
def tiny_runs():
    """Per workload: one untraced and two same-seed traced tiny runs."""
    return {
        name: (
            measure(name, seed=SEED, seconds=0, trace=False, tiny=True),
            measure(name, seed=SEED, seconds=0, trace=True, tiny=True),
            measure(name, seed=SEED, seconds=0, trace=True, tiny=True),
        )
        for name in WORKLOAD_NAMES
    }


def test_benchmark_json_names_the_workloads_the_runner_has():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec()["end_to_end"] + spec()["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names + WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_is_emitted_and_nothing_fails(tiny_runs, name):
    untraced, traced, again = tiny_runs[name]
    assert set(untraced["metrics"]) == {m["name"] for m in spec()["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    for result in (untraced, traced, again):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(value > 0 for value in _values(untraced).values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_layers_cover_the_operations_and_only_their_own_workloads(tiny_runs, name):
    layers = _values(tiny_runs[name][1])
    assert layers["trace.coverage"] >= 0.9
    if name.startswith("exec_"):
        assert layers["core.strategies_run"] == 0
        assert layers["execution.calls"] > 0
    else:
        assert layers["optimizer.best_cost_calls"] > 0
    assert (layers["storage.spills"] > 0) == (name == "exec_spill")
    assert (layers["scheduler.micro_batches"] > 0) == (name == "star_serving")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_repeats_counts_and_digests_exactly(tiny_runs, name):
    untraced, traced, again = tiny_runs[name]
    first, second = _values(traced), _values(again)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert len({r["detail"]["rows_digest"] for r in (untraced, traced, again)}) == 1


def test_exec_workloads_return_the_same_rows(tiny_runs):
    ram, spill = tiny_runs["exec_ram"][0], tiny_runs["exec_spill"][0]
    assert ram["detail"]["rows_digest"] == spill["detail"]["rows_digest"]


def test_cli_prints_the_result_line_and_fails_on_a_corrupt_reference(monkeypatch, capsys):
    argv = ["run", "--workload", "exec_ram", "--seed", str(SEED), "--seconds", "0", "--tiny"]
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0

    honest = workloads.reference_rows

    def corrupted(catalog, database, batches):
        reference = honest(catalog, database, batches)
        rows = next(rows for rows in reference[0].values() if rows)
        rows[0] = {**rows[0], "total": -1.0}
        return reference

    monkeypatch.setattr(workloads, "reference_rows", corrupted)
    assert cli.main(argv) != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
