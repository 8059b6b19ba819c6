"""The serving layer: persistent cross-batch optimization *and execution*.

Every batch reaches the materialization-selection strategies through this
package, whether it is optimized once or is part of continuous *traffic*:

* :class:`~repro.service.session.OptimizerSession` keeps the catalog, cost
  model, fingerprint-interned memo and warm ``bestCost`` engines alive
  across batches, and — with a database attached — answers queries with
  real rows through ``execute_batch()``,
* :class:`~repro.service.matcache.MaterializationCache` stores executed
  materialized-node row sets keyed by semantic fingerprint, with byte
  accounting, cost-aware LRU eviction and data-version invalidation, so a
  warm session skips re-computation of shared subexpressions, and
* :class:`~repro.service.scheduler.BatchScheduler` micro-batches
  individually submitted queries and runs them through the session on a
  thread pool (optionally returning rows per query).

One session behind one scheduler is the whole serving path: every batch
shares one memo, which is the point of multi-query optimization.  Spreading
traffic over N independent processes is a routing decision outside this
package — see :func:`~repro.dag.build.query_signature`.
"""

from .matcache import CacheStatistics, MaterializationCache, cache_key
from .session import BatchExecution, OptimizerSession, PreparedBatch, SessionStatistics
from .scheduler import BatchScheduler, QueryOutcome

__all__ = [
    "BatchExecution",
    "CacheStatistics",
    "MaterializationCache",
    "OptimizerSession",
    "PreparedBatch",
    "SessionStatistics",
    "BatchScheduler",
    "QueryOutcome",
    "cache_key",
]
