"""Tier-1 smoke tests for every ``benchmarks/bench_*.py`` module.

Each benchmark module is run **in-process** at tiny scale (one nested
``pytest.main`` per module with ``REPRO_BENCH_TINY=1``) with its JSON
output redirected into a temporary directory via ``REPRO_BENCH_OUT``.
The smoke bar is:

* the nested run exits 0 — every correctness assertion in the bench
  holds at tiny scale (perf-only assertions gate themselves off under
  ``REPRO_BENCH_TINY``);
* every ``BENCH_*.json`` artifact the module owns is written, parses,
  and carries its required keys.

This keeps the benchmarks from rotting between the occasional full-scale
CI runs: an API drift that would break ``benchmarks/`` now fails tier-1
within seconds instead of at the next nightly.

The modules read the env knobs at call time (``benchmarks/_env.py``), so
setting them just before the nested run is sufficient even though the
bench modules stay cached in ``sys.modules`` across nested runs.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARKS = REPO_ROOT / "benchmarks"

pytest.importorskip(
    "pytest_benchmark", reason="bench modules use the benchmark fixture"
)

# Modules that write no JSON of their own: their machine-readable output
# is the per-benchmark median aggregation the benchmarks/ conftest writes
# to BENCH_core.json at session finish.  They are smoked together in one
# nested run (reduced batch count, single benchmark round) and the
# aggregate is schema-checked once.
CORE_MODULES = (
    "bench_ablations",
    "bench_core",
    "bench_example1",
    "bench_experiment1",
    "bench_experiment2",
    "bench_session",
    "bench_theory",
)

# module stem -> {artifact filename: required top-level keys}
BENCH_ARTIFACTS = {
    "bench_execute": {
        "BENCH_execute.json": ("batch", "unit", "backends", "strategy"),
    },
    "bench_columnar": {
        "BENCH_columnar.json": (
            "row_cold_execute",
            "columnar_cold_execute",
            "speedup",
            "tiny",
        ),
        "BENCH_backends.json": ("backends", "speedup_vs_row", "rows_identical"),
    },
    "bench_adaptive": {
        "BENCH_adaptive.json": (
            "stale_plan_cost",
            "reoptimized_plan_cost",
            "cost_improvement",
            "drift_events",
            "tiny",
        ),
    },
    "bench_spill": {
        "BENCH_spill.json": (
            "cold_time",
            "warm_from_disk_time",
            "warm_from_ram_time",
            "working_set_bytes",
            "ram_budget_bytes",
            "tiny",
        ),
    },
    "bench_obs": {
        "BENCH_obs.json": (
            "floor_bare_executor",
            "disabled_tracing",
            "enabled_tracing",
            "disabled_overhead_pct",
            "tiny",
        ),
    },
}


def test_every_bench_module_is_covered():
    """A new bench_*.py must register itself here to enter tier-1."""
    stems = sorted(p.stem for p in BENCHMARKS.glob("bench_*.py"))
    covered = sorted(set(BENCH_ARTIFACTS) | set(CORE_MODULES))
    assert stems == covered, (
        "add the new module to BENCH_ARTIFACTS (it writes its own "
        "BENCH_*.json) or CORE_MODULES (it reports via BENCH_core.json)"
    )


def run_bench_tiny(stems, out_dir, monkeypatch, extra=("--benchmark-disable",)):
    """One nested pytest run of bench module(s) at tiny scale."""
    monkeypatch.setenv("REPRO_BENCH_TINY", "1")
    monkeypatch.setenv("REPRO_BENCH_BATCHES", "1")
    monkeypatch.setenv("REPRO_BENCH_OUT", str(out_dir))
    # The benchmarks/ conftest aggregates pytest-benchmark medians into
    # BENCH_core.json at session finish; point that into the sandbox too.
    monkeypatch.setenv("REPRO_BENCH_JSON", str(out_dir / "BENCH_core.json"))
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return pytest.main(
        [str(BENCHMARKS / f"{stem}.py") for stem in stems]
        + [
            "-q",
            "-p",
            "no:cacheprovider",
            "-W",
            "ignore::pytest.PytestAssertRewriteWarning",
        ]
        + list(extra)
    )


@pytest.mark.parametrize("stem", sorted(BENCH_ARTIFACTS))
def test_bench_module_smokes_at_tiny_scale(stem, tmp_path, monkeypatch):
    exit_code = run_bench_tiny([stem], tmp_path, monkeypatch)
    assert exit_code == 0, f"{stem} failed at tiny scale (exit {exit_code})"

    for filename, required_keys in BENCH_ARTIFACTS[stem].items():
        artifact = tmp_path / filename
        assert artifact.is_file(), f"{stem} did not write {filename}"
        document = json.loads(artifact.read_text(encoding="utf-8"))
        missing = [key for key in required_keys if key not in document]
        assert not missing, f"{filename} is missing keys: {missing}"


def test_core_bench_modules_smoke_into_bench_core_json(tmp_path, monkeypatch):
    """The conftest-aggregated modules, one reduced-scale nested run.

    Benchmarks stay *enabled* here (single round, no warmup) — with them
    disabled the conftest has no medians and writes nothing — so this
    also smokes the aggregation path itself.
    """
    exit_code = run_bench_tiny(
        CORE_MODULES,
        tmp_path,
        monkeypatch,
        extra=(
            "--benchmark-min-rounds=1",
            "--benchmark-max-time=0.01",
            "--benchmark-warmup=off",
        ),
    )
    assert exit_code == 0, f"core bench modules failed (exit {exit_code})"

    artifact = tmp_path / "BENCH_core.json"
    assert artifact.is_file(), "the conftest must aggregate BENCH_core.json"
    document = json.loads(artifact.read_text(encoding="utf-8"))
    for key in ("generated_at", "unit", "statistic", "benchmarks"):
        assert key in document, f"BENCH_core.json is missing {key!r}"
    assert document["statistic"] == "median"
    assert document["benchmarks"], "every module should report >= 1 median"
    for fullname, median in document["benchmarks"].items():
        assert isinstance(median, float) and median >= 0.0, fullname


def test_bench_env_knobs_read_at_call_time(monkeypatch):
    """The _env helpers must track the environment, not import-time state."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import _env

    monkeypatch.delenv("REPRO_BENCH_TINY", raising=False)
    monkeypatch.delenv("REPRO_BENCH_OUT", raising=False)
    assert _env.tiny() is False
    assert _env.scaled(100, 7) == 100
    assert _env.bench_path("BENCH_x.json") == REPO_ROOT / "BENCH_x.json"

    monkeypatch.setenv("REPRO_BENCH_TINY", "1")
    monkeypatch.setenv("REPRO_BENCH_OUT", "/tmp/somewhere")
    assert _env.tiny() is True
    assert _env.scaled(100, 7) == 7
    assert _env.bench_path("BENCH_x.json") == Path("/tmp/somewhere/BENCH_x.json")
