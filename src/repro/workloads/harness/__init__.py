"""Scale-factor data, multi-tenant traffic and a row-correctness oracle.

Three building blocks for driving the serving stack with realistic load:

* :mod:`.scale` — :class:`ScaleSpec` sizes deterministic star / TPC-D /
  mixed databases by one multiplier, and :func:`build_world` returns the
  catalog, the database and a drift handle
  (:meth:`HarnessWorld.inject_drift`) that rewrites the fact table in place;
* :mod:`.traffic` — :func:`generate_traffic` draws a seeded request list
  from parameterized query templates, with Zipf-skewed tenants and
  closed, Poisson or bursty open-loop arrival offsets;
* :mod:`.oracle` — :class:`CorrectnessOracle` replays sampled requests on
  independent reference sessions and records every row mismatch.

``benchmarks.perf`` is the one measurement driver built on them;
``tests/workloads/test_serving_oracle.py`` drives the same pieces as a
tier-1 correctness gate.
"""

from .oracle import CorrectnessOracle, OracleMismatch, canonical_rows
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
    "HarnessWorld",
    "OracleMismatch",
    "QueryTemplate",
    "Request",
    "ScaleSpec",
    "TrafficSpec",
    "WORKLOADS",
    "arrival_offsets",
    "build_world",
    "canonical_rows",
    "generate_traffic",
    "merge_catalogs",
    "star_templates",
    "templates_for",
    "tpcd_templates",
]
