"""Collaborator parameters keep an explicitly passed falsy instance.

``param or Fallback()`` silently swaps an explicitly passed *empty*
collaborator (an empty cache has ``len() == 0``) for a fresh private one:
a session handed a shared cache would then fill a cache nobody else sees.
Every collaborator parameter below must keep the instance it was given, by
identity, even when that instance is falsy.  And the one built when the
parameter is omitted must be private to its owner: a stateful default shared
between owners is the same cross-talk from the other side.
"""

import pytest

from repro.adaptive import AdaptiveConfig, BenefitAwarePolicy, CostLRUPolicy, FeedbackStatsStore
from repro.cost.model import CostModel
from repro.dag import DagBuilder, DagConfig, build_batch_dag
from repro.execution.data import Database
from repro.obs import InMemorySink, MetricsRegistry, Observability, Tracer
from repro.optimizer import VolcanoOptimizer
from repro.optimizer.volcano import PlanTable
from repro.service import MaterializationCache, OptimizerSession
from repro.service.matcache import CacheStatistics
from repro.storage.spill import SpillingMaterializationCache
from repro.workloads.synthetic import example1_batch, example1_catalog


def falsy(cls, *args, **kwargs):
    """An instance of a subclass of ``cls`` whose truth value is False."""
    return type("Falsy" + cls.__name__, (cls,), {"__bool__": lambda self: False})(
        *args, **kwargs
    )


def session(**kwargs):
    return OptimizerSession(example1_catalog(), **kwargs)


#: name -> (the falsy instance to pass, the object built with it, read back).
CASES = {
    "OptimizerSession(matcache=)": (
        MaterializationCache,  # empty: falsy through len() == 0
        lambda value, tmp: session(matcache=value).matcache,
    ),
    "OptimizerSession(obs=)": (
        lambda: falsy(Observability),
        lambda value, tmp: session(obs=value).obs,
    ),
    "OptimizerSession(cost_model=)": (
        lambda: falsy(CostModel),
        lambda value, tmp: session(cost_model=value).cost_model,
    ),
    "OptimizerSession(dag_config=)": (
        lambda: falsy(DagConfig),
        lambda value, tmp: session(dag_config=value).dag_config,
    ),
    "MaterializationCache(policy=)": (
        lambda: falsy(CostLRUPolicy),
        lambda value, tmp: MaterializationCache(policy=value).policy,
    ),
    "MaterializationCache(obs=)": (
        lambda: falsy(Observability),
        lambda value, tmp: MaterializationCache(obs=value).obs,
    ),
    "SpillingMaterializationCache(policy=)": (
        lambda: falsy(CostLRUPolicy),
        lambda value, tmp: SpillingMaterializationCache(tmp, policy=value).policy,
    ),
    "SpillingMaterializationCache(obs=)": (
        lambda: falsy(Observability),
        lambda value, tmp: SpillingMaterializationCache(tmp, obs=value).obs,
    ),
    "FeedbackStatsStore(registry=)": (
        lambda: falsy(MetricsRegistry),
        lambda value, tmp: FeedbackStatsStore(registry=value).statistics._registry,
    ),
    "BenefitAwarePolicy(fallback=)": (
        lambda: falsy(CostLRUPolicy),
        lambda value, tmp: BenefitAwarePolicy(
            FeedbackStatsStore(), fallback=value
        ).fallback,
    ),
    "Observability(registry=)": (
        lambda: falsy(MetricsRegistry),
        lambda value, tmp: Observability(registry=value).registry,
    ),
    "OptimizerSession(adaptive=True, matcache=)": (
        MaterializationCache,
        lambda value, tmp: session(adaptive=True, matcache=value).matcache,
    ),
    "OptimizerSession(spill_dir=, matcache=)": (
        MaterializationCache,
        lambda value, tmp: session(spill_dir=tmp, matcache=value).matcache,
    ),
    "OptimizerSession(adaptive=)": (
        lambda: falsy(AdaptiveConfig),
        lambda value, tmp: session(adaptive=value).adaptive_config,
    ),
    "OptimizerSession(database=)": (
        lambda: falsy(Database),
        lambda value, tmp: session(database=value).database,
    ),
    "Observability(tracer=)": (
        lambda: falsy(Tracer),
        lambda value, tmp: Observability(tracer=value).tracer,
    ),
    "Tracer(sink=)": (
        lambda: falsy(InMemorySink),
        lambda value, tmp: Tracer(value).sink,
    ),
    "CacheStatistics(registry=)": (
        lambda: falsy(MetricsRegistry),
        lambda value, tmp: CacheStatistics(value)._registry,
    ),
    "DagBuilder(config=)": (
        lambda: falsy(DagConfig),
        lambda value, tmp: DagBuilder(example1_catalog(), value).config,
    ),
    "build_batch_dag(config=)": (
        lambda: falsy(DagConfig),
        lambda value, tmp: build_batch_dag(example1_batch(), example1_catalog(), value).config,
    ),
    "VolcanoOptimizer(cost_model=)": (
        lambda: falsy(CostModel),
        lambda value, tmp: VolcanoOptimizer(
            build_batch_dag(example1_batch(), example1_catalog()), value
        ).cost_model,
    ),
    "PlanTable(stored=)": (
        dict,  # empty: falsy through len() == 0
        lambda value, tmp: PlanTable(value).stored,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_explicit_falsy_collaborator_is_kept_by_identity(name, tmp_path):
    make, build = CASES[name]
    value = make()
    assert not value  # the premise: the instance really is falsy
    assert build(value, tmp_path) is value


#: name -> reads the stateful collaborator an owner built for itself.
PRIVATE_DEFAULTS = {
    "OptimizerSession: matcache": lambda tmp: session().matcache,
    "OptimizerSession(adaptive=True): matcache": lambda tmp: session(adaptive=True).matcache,
    "OptimizerSession(spill_dir=): matcache": lambda tmp: session(spill_dir=tmp).matcache,
    "OptimizerSession: obs.registry": lambda tmp: session().obs.registry,
    "MaterializationCache: obs.registry": lambda tmp: MaterializationCache().obs.registry,
    "SpillingMaterializationCache: policy": (
        lambda tmp: SpillingMaterializationCache(tmp).policy
    ),
    "FeedbackStatsStore: registry": lambda tmp: FeedbackStatsStore().statistics._registry,
    "BenefitAwarePolicy: fallback": (
        lambda tmp: BenefitAwarePolicy(FeedbackStatsStore()).fallback
    ),
    "Tracer: sink": lambda tmp: Tracer().sink,
    "PlanTable: stored": lambda tmp: PlanTable().stored,
}


@pytest.mark.parametrize("name", sorted(PRIVATE_DEFAULTS))
def test_omitted_stateful_collaborator_is_private_to_its_owner(name, tmp_path):
    build = PRIVATE_DEFAULTS[name]
    first = build(tmp_path / "first")
    assert first is not None
    assert build(tmp_path / "second") is not first
