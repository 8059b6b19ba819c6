"""repro — a reproduction of "Efficient and Provable Multi-Query Optimization".

Kathuria & Sudarshan (PODS 2017) reformulate multi-query optimization (MQO)
as unconstrained normalized submodular maximization (UNSM) of the
materialization benefit and give the MarginalGreedy algorithm with a
matching approximation guarantee and hardness result.

This package provides:

* the UNSM algorithms themselves (:mod:`repro.core`),
* a complete Volcano-style query-optimization substrate — catalog,
  relational algebra, AND-OR DAG / memo with its expansion and subsumption
  rules, cost model, plan extraction (:mod:`repro.catalog`,
  :mod:`repro.algebra`, :mod:`repro.dag`, :mod:`repro.cost`,
  :mod:`repro.optimizer`),
* the optimizer session every batch goes through (:mod:`repro.service`),
* an in-memory execution engine for validating shared plans
  (:mod:`repro.execution`),
* the TPCD workloads of the paper's evaluation (:mod:`repro.workloads`), and
* an experiment harness that regenerates every figure
  (:mod:`repro.experiments`).

Quick start::

    from repro import OptimizerSession, workloads
    from repro.catalog.tpcd import tpcd_catalog

    catalog = tpcd_catalog(scale_factor=1)
    batch = workloads.composite_batch(2)          # BQ2: Q3 and Q5, twice each
    session = OptimizerSession(catalog)
    result = session.optimize(batch, strategy="marginal-greedy")
    print(result.summary())
"""

from __future__ import annotations

__version__ = "1.0.0"

from . import core  # noqa: F401  (re-exported subpackage)

__all__ = ["core", "__version__"]


def __getattr__(name):  # pragma: no cover - thin lazy-import shim
    """Lazily expose heavyweight entry points at the package top level.

    ``OptimizerSession`` pulls in the whole optimizer stack; importing it
    lazily keeps ``import repro`` cheap for users who only need the
    submodular toolkit.
    """
    if name == "OptimizerSession":
        from .service.session import OptimizerSession

        return OptimizerSession
    if name == "BatchScheduler":
        from .service.scheduler import BatchScheduler

        return BatchScheduler
    if name == "MaterializationCache":
        from .service.matcache import MaterializationCache

        return MaterializationCache
    if name == "workloads":
        # ``from . import workloads`` would re-enter this __getattr__ through
        # the import system's fromlist handling and recurse forever; import
        # the submodule directly instead.
        import importlib

        return importlib.import_module(".workloads", __name__)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
