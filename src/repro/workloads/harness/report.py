"""Report serialization: one harness run → machine-readable JSON + CSV.

The JSON document is the full nested report (one entry per setting, the
:meth:`~.controller.SettingReport.as_dict` shape under a versioned
envelope); the CSV is the same data flattened one row per setting, so a
matrix run drops straight into a spreadsheet or pandas without any
unpacking.  :func:`validate_report` is the schema gate the smoke tests
and CI artifacts are checked against — if the envelope or a per-setting
section ever loses a field, the tier-1 suite fails before a dashboard
silently goes blank.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

from .controller import SettingReport

__all__ = [
    "REPORT_FORMAT",
    "build_report",
    "flatten_setting",
    "validate_report",
    "write_csv",
    "write_json",
]

#: Bump when the report envelope changes shape.
REPORT_FORMAT = 2

#: Config knobs worth a CSV column of their own (the rest stay in JSON).
_CSV_CONFIG_KEYS = (
    "workload",
    "scale",
    "executor",
    "arrival",
    "tenants",
    "zipf",
    "requests",
    "adaptive",
    "seed",
)

#: Per-series latency stats exported to CSV.
_CSV_LATENCY_STATS = ("p50", "p95", "p99", "mean", "count")


def build_report(settings: Sequence[SettingReport]) -> Dict[str, object]:
    """The versioned envelope around a list of setting reports."""
    return {
        "format": REPORT_FORMAT,
        "kind": "harness",
        "settings": [s.as_dict() for s in settings],
    }


def write_json(
    settings: Sequence[SettingReport], path: Union[str, Path]
) -> Dict[str, object]:
    report = build_report(settings)
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def flatten_setting(setting: Mapping[str, object]) -> Dict[str, object]:
    """One CSV row from one ``SettingReport.as_dict()`` mapping."""
    row: Dict[str, object] = {"label": setting["label"]}
    config = setting["config"]
    for key in _CSV_CONFIG_KEYS:
        row[key] = config.get(key)
    for key in ("requests", "completed", "wall_seconds", "throughput_rps"):
        row[key] = setting[key]
    for series, stats in sorted(setting["latency"].items()):
        for stat in _CSV_LATENCY_STATS:
            row[f"latency_{series}_{stat}"] = stats.get(stat)
    for group, counters in sorted(setting["counters"].items()):
        for name in sorted(counters):
            row[f"{group}_{name}"] = counters[name]
    oracle = setting["oracle"]
    row["oracle_checked"] = oracle.get("checked", 0)
    row["oracle_mismatches"] = oracle.get("mismatches", 0)
    row["drift_steps_applied"] = setting["drift_steps_applied"]
    row["sampled_rows_digest"] = setting["sampled_rows_digest"]
    return row


def write_csv(settings: Sequence[SettingReport], path: Union[str, Path]) -> List[str]:
    """One row per setting; returns the header actually written.

    The header is the union of every row's keys in first-seen order, so a
    matrix mixing spill and non-spill settings still writes one rectangular
    file (the counter groups are schema-stable, so in practice every row
    has every column).
    """
    rows = [flatten_setting(s.as_dict()) for s in settings]
    header: List[str] = []
    for row in rows:
        for key in row:
            if key not in header:
                header.append(key)
    with Path(path).open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    return header


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------

_SETTING_REQUIRED = (
    "label",
    "config",
    "requests",
    "completed",
    "wall_seconds",
    "throughput_rps",
    "latency",
    "counters",
    "oracle",
    "drift_steps_applied",
    "sampled_rows_digest",
)
_COUNTER_GROUPS = ("session", "cache", "feedback")
_ORACLE_REQUIRED = ("backends", "checked", "mismatches", "mismatch_details")
_LATENCY_REQUIRED = ("count", "mean", "p50", "p95", "p99")


def validate_report(report: Mapping[str, object]) -> Mapping[str, object]:
    """Raise ``ValueError`` on any schema violation; return the report."""
    if report.get("format") != REPORT_FORMAT:
        raise ValueError(
            f"unsupported report format {report.get('format')!r}; "
            f"expected {REPORT_FORMAT}"
        )
    if report.get("kind") != "harness":
        raise ValueError(f"not a harness report: kind={report.get('kind')!r}")
    settings = report.get("settings")
    if not isinstance(settings, list) or not settings:
        raise ValueError("report must carry a non-empty settings list")
    for position, setting in enumerate(settings):
        where = f"settings[{position}]"
        for key in _SETTING_REQUIRED:
            if key not in setting:
                raise ValueError(f"{where} is missing {key!r}")
        if not isinstance(setting["throughput_rps"], (int, float)):
            raise ValueError(f"{where}.throughput_rps must be numeric")
        latency = setting["latency"]
        if "request" not in latency:
            raise ValueError(f"{where}.latency must include the request series")
        for series, stats in latency.items():
            for stat in _LATENCY_REQUIRED:
                if stat not in stats:
                    raise ValueError(f"{where}.latency[{series!r}] lacks {stat!r}")
        counters = setting["counters"]
        for group in _COUNTER_GROUPS:
            if group not in counters or not isinstance(counters[group], Mapping):
                raise ValueError(f"{where}.counters must carry the {group!r} group")
        oracle = setting["oracle"]
        for key in _ORACLE_REQUIRED:
            if key not in oracle:
                raise ValueError(f"{where}.oracle is missing {key!r}")
    return report
