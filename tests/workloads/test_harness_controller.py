"""End-to-end harness tests: tiny runs through the real serving stack."""

import json

import pytest

from repro.workloads.harness import (
    HarnessConfig,
    REPORT_FORMAT,
    run_setting,
    validate_report,
    write_csv,
    write_json,
)
from repro.workloads.harness.__main__ import build_parser, configs_from_args, main
from repro.workloads.harness.controller import _segments
from repro.workloads.harness.report import flatten_setting


TINY = dict(requests=24, tenants=4, templates=3, workers=2, oracle_sample=0.25)


@pytest.fixture(scope="module")
def tiny_report():
    return run_setting(HarnessConfig(drift_at=(0.5,), **TINY))


def test_run_completes_everything(tiny_report):
    assert tiny_report.completed == tiny_report.requests == 24
    assert tiny_report.throughput_rps > 0
    assert tiny_report.wall_seconds > 0


def test_run_latency_series_present(tiny_report):
    assert set(tiny_report.latency) >= {"request", "optimize", "execute", "queue_wait"}
    request = tiny_report.latency["request"]
    assert request["count"] == 24
    assert 0 < request["p50"] <= request["p95"] <= request["p99"]


def test_run_counters_schema_stable(tiny_report):
    # Non-spilling, non-adaptive run still reports every counter column.
    assert {"session", "cache", "feedback"} <= set(tiny_report.counters)
    assert "disk_evictions" in tiny_report.counters["cache"]
    assert "records" in tiny_report.counters["feedback"]
    assert tiny_report.counters["session"]["queries_executed"] == 24


def test_run_oracle_checked_and_clean(tiny_report):
    assert tiny_report.oracle["mismatches"] == 0
    assert tiny_report.oracle["checked"] > 0
    assert tiny_report.oracle_mismatches == 0


def test_run_applied_the_drift_schedule(tiny_report):
    assert tiny_report.drift_steps_applied == 1


def test_run_micro_batches_requests_through_one_session(tiny_report):
    session = tiny_report.counters["session"]
    # The scheduler formed micro-batches: every request was executed, in
    # no more batches than there were requests.
    assert 0 < session["batches_executed"] <= session["queries_executed"] == 24


def test_identical_config_identical_digest(tiny_report):
    # Full determinism modulo scheduling: the same config serves the same
    # sampled rows, bit for bit, on a rerun.
    again = run_setting(HarnessConfig(drift_at=(0.5,), **TINY))
    assert again.sampled_rows_digest == tiny_report.sampled_rows_digest
    assert again.oracle["mismatches"] == 0


def test_report_roundtrip_and_schema(tiny_report, tmp_path):
    report = write_json([tiny_report], tmp_path / "r.json")
    validate_report(report)
    loaded = json.loads((tmp_path / "r.json").read_text())
    assert loaded["format"] == REPORT_FORMAT
    validate_report(loaded)
    assert loaded["settings"][0]["label"] == tiny_report.label
    # sampled rows must NOT leak into the serialized report
    assert "sampled_rows" not in loaded["settings"][0]


def test_report_csv_one_row_per_setting(tiny_report, tmp_path):
    header = write_csv([tiny_report], tmp_path / "r.csv")
    lines = (tmp_path / "r.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert "throughput_rps" in header and "latency_request_p99" in header
    row = flatten_setting(tiny_report.as_dict())
    assert row["oracle_mismatches"] == 0
    assert set(row) == set(header)


@pytest.mark.parametrize(
    "mutation",
    [
        {"format": 99},
        {"format": 1},
        {"kind": "bench"},
        {"settings": []},
    ],
)
def test_validate_report_rejects_bad_envelopes(tiny_report, mutation):
    base = {
        "format": REPORT_FORMAT,
        "kind": "harness",
        "settings": [tiny_report.as_dict()],
    }
    base.update(mutation)
    with pytest.raises(ValueError):
        validate_report(base)


def test_setting_report_has_no_sharding_fields(tiny_report):
    """Format 2 describes one session per setting: no shard count, no
    tenant routing, no per-shard batch tallies in the JSON or the CSV."""
    setting = tiny_report.as_dict()
    row = flatten_setting(setting)
    for name in ("shards", "route_by_tenant", "shard_batches_served"):
        assert name not in setting
        assert name not in setting["config"]
        assert not any(column.startswith(name) for column in row)


def test_executor_backends_serve_the_same_digest(tiny_report):
    """Every setting replays the identical traffic through one session, so
    the columnar backend must serve exactly the row backend's rows."""
    columnar = run_setting(HarnessConfig(drift_at=(0.5,), executor="columnar", **TINY))
    assert tiny_report.config["executor"] == "row"
    assert columnar.sampled_rows_digest == tiny_report.sampled_rows_digest
    assert columnar.oracle["mismatches"] == 0


def test_validate_report_rejects_missing_setting_field(tiny_report):
    setting = tiny_report.as_dict()
    del setting["throughput_rps"]
    with pytest.raises(ValueError, match="throughput_rps"):
        validate_report(
            {"format": REPORT_FORMAT, "kind": "harness", "settings": [setting]}
        )


def test_segments_split_at_fractions():
    requests = list(range(10))
    parts = _segments(requests, (0.5,))
    assert [len(p) for p in parts] == [5, 5]
    parts = _segments(requests, (0.3, 0.7))
    assert [len(p) for p in parts] == [3, 4, 3]
    assert _segments(requests, ()) == [requests]


def test_config_validation():
    with pytest.raises(ValueError):
        HarnessConfig(drift_at=(0.0,))
    with pytest.raises(ValueError):
        HarnessConfig(drift_at=(1.5,))
    with pytest.raises(ValueError):
        HarnessConfig(arrival="warp:9")


def test_cli_matrix_cross_product():
    args = build_parser().parse_args(
        ["--scale", "1,2", "--executor", "row,columnar"]
    )
    configs = configs_from_args(args)
    assert len(configs) == 4
    assert {(c.scale, c.executor) for c in configs} == {
        (s, e) for s in (1.0, 2.0) for e in ("row", "columnar")
    }


@pytest.mark.parametrize("flag", ["--shards", "--route-by-tenant"])
def test_cli_has_no_sharding_flags(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([flag, "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_oracle_none_disables_oracle():
    args = build_parser().parse_args(["--oracle", "none"])
    (config,) = configs_from_args(args)
    assert config.oracle == ()


def test_cli_end_to_end(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    code = main(
        [
            "--requests", "12",
            "--tenants", "3",
            "--templates", "2",
            "--workers", "2",
            "--oracle-sample", "0.5",
            "--json", str(json_path),
            "--csv", str(csv_path),
        ]
    )
    assert code == 0
    report = validate_report(json.loads(json_path.read_text()))
    assert len(report["settings"]) == 1
    assert csv_path.read_text().count("\n") == 2
    out = capsys.readouterr().out
    assert "0 mismatched" in out


def test_cli_rejects_bad_arrival(tmp_path):
    code = main(
        ["--arrival", "poisson:-1", "--json", str(tmp_path / "x.json"), "--csv", str(tmp_path / "x.csv")]
    )
    assert code == 2
