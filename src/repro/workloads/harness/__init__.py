"""Scale-factor workload harness + multi-tenant traffic simulator.

The harness closes the loop between the repository's serving stack and
its correctness machinery: one :class:`HarnessConfig` names a data scale,
a traffic mix and a serving configuration; :func:`run_setting` builds the
world, drives the traffic open-loop through a real
:class:`~repro.service.session.OptimizerSession` + scheduler, replays sampled
answers against independent reference executors, and reports throughput,
latency percentiles, cache/feedback/spill counters and the oracle verdict
in one schema-validated document.

Run it from the command line::

    python -m repro.workloads.harness --scale 4 --tenants 16 --zipf 1.2 \
        --arrival poisson:200 --drift-at 0.5 \
        --executor columnar --oracle row

Comma-separate ``--scale``/``--executor`` to sweep a matrix
in one report.
"""

from .controller import (
    HarnessConfig,
    SettingReport,
    drive_requests,
    run_setting,
)
from .oracle import CorrectnessOracle, OracleMismatch, canonical_rows
from .report import (
    REPORT_FORMAT,
    build_report,
    validate_report,
    write_csv,
    write_json,
)
from .scale import WORKLOADS, HarnessWorld, ScaleSpec, build_world, merge_catalogs
from .traffic import (
    ARRIVAL_KINDS,
    QueryTemplate,
    Request,
    TrafficSpec,
    arrival_offsets,
    generate_traffic,
    star_templates,
    templates_for,
    tpcd_templates,
)

__all__ = [
    "ARRIVAL_KINDS",
    "CorrectnessOracle",
    "HarnessConfig",
    "HarnessWorld",
    "OracleMismatch",
    "QueryTemplate",
    "REPORT_FORMAT",
    "Request",
    "ScaleSpec",
    "SettingReport",
    "TrafficSpec",
    "WORKLOADS",
    "arrival_offsets",
    "build_report",
    "build_world",
    "canonical_rows",
    "drive_requests",
    "generate_traffic",
    "merge_catalogs",
    "run_setting",
    "star_templates",
    "templates_for",
    "tpcd_templates",
    "validate_report",
    "write_csv",
    "write_json",
]
