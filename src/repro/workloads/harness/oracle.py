"""Row-correctness oracles: replay served requests and compare the rows.

A :class:`CorrectnessOracle` owns one *independent* reference
:class:`~repro.service.session.OptimizerSession` per oracle backend —
fresh memo, fresh caches, nothing shared with the serving stack under
measurement except the immutable catalog and the one database — and
replays sampled requests against it, comparing rows:

* **exactly** (``==``, order included) when both the serving backend and
  the oracle backend are Python executors (``row``/``columnar``), whose
  differential suites prove bit-identical row order, and
* **order-normalized with floats rounded** when either side is a SQL
  engine (``sqlite``/``duckdb``), the same discipline as
  ``tests/execution/test_sql_differential.py`` — engines sum and emit in
  different orders.

A driver calls :meth:`CorrectnessOracle.verify` only after the scheduler
has drained and before the next drift step, so the reference always
executes against the same data version the serving stack answered from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...catalog.catalog import Catalog
from ...execution.backends import DEFAULT_BACKEND
from ...execution.data import Database, Row
from ...execution.evaluate import total_order_key
from ...service.session import OptimizerSession
from .traffic import Request

__all__ = ["CorrectnessOracle", "OracleMismatch", "canonical_rows"]

#: Backends whose row *order* is bit-identical across the Python executors.
_EXACT_ORDER_BACKENDS = frozenset({"row", "columnar"})

#: How many mismatches to keep in full detail before only counting.
_MISMATCH_DETAIL_CAP = 16


def canonical_rows(rows: Sequence[Row]) -> List[Tuple[Tuple[str, object], ...]]:
    """Order-normalized rows with floats rounded (the SQL-differential idiom)."""
    normalized = [
        tuple(
            sorted(
                (k, round(v, 6) if isinstance(v, float) else v) for k, v in row.items()
            )
        )
        for row in rows
    ]
    return sorted(normalized, key=lambda row: [(k, total_order_key(v)) for k, v in row])


@dataclass(frozen=True)
class OracleMismatch:
    """One sampled request whose serving rows differed from a reference."""

    request_index: int
    template_id: str
    tenant: str
    backend: str
    detail: str


@dataclass
class CorrectnessOracle:
    """Replays sampled requests against independent reference backends.

    Args:
        catalog / database: the world under test; the reference sessions
            attach the *same* database object, so drift applied between
            segments is visible to them the moment it happens.
        serving_backend: the backend the measured stack executes with —
            decides exact vs. order-normalized comparison per reference.
        backends: reference backends to replay on; ``("row",)`` is the
            canonical oracle, add ``"sqlite"`` for an engine-independent
            second opinion.
        strategy: the strategy the references optimize with.  Correct
            executors return identical rows under *any* strategy, so this
            only affects oracle speed.
    """

    catalog: Catalog
    database: Database
    serving_backend: str = DEFAULT_BACKEND
    backends: Tuple[str, ...] = ("row",)
    strategy: str = "marginal-greedy"
    checked: int = 0
    mismatch_count: int = 0
    mismatches: List[OracleMismatch] = field(default_factory=list)
    _sessions: Dict[str, OptimizerSession] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.backends:
            raise ValueError("at least one oracle backend is required")
        for backend in self.backends:
            self._sessions[backend] = OptimizerSession(
                self.catalog, database=self.database, executor=backend
            )

    def verify(self, request: Request, rows: Optional[List[Row]]) -> bool:
        """Replay one sampled request on every reference; record mismatches.

        Returns True when every backend agreed.  ``rows=None`` (a request
        whose rows were lost, e.g. a cancelled future) counts as a
        mismatch: a perf run that silently drops sampled answers must not
        pass its correctness gate.
        """
        self.checked += 1
        ok = True
        for backend, session in self._sessions.items():
            if rows is None:
                self._record(request, backend, "serving rows missing")
                ok = False
                continue
            expected = session.execute(request.query, strategy=self.strategy)
            if self._exact(backend):
                matched = rows == expected
            else:
                matched = canonical_rows(rows) == canonical_rows(expected)
            if not matched:
                self._record(
                    request,
                    backend,
                    f"{len(rows)} serving rows != {len(expected)} reference rows "
                    f"(template {request.template_id}, params {request.params!r})",
                )
                ok = False
        return ok

    def _exact(self, backend: str) -> bool:
        return (
            backend in _EXACT_ORDER_BACKENDS
            and self.serving_backend in _EXACT_ORDER_BACKENDS
        )

    def _record(self, request: Request, backend: str, detail: str) -> None:
        self.mismatch_count += 1
        if len(self.mismatches) < _MISMATCH_DETAIL_CAP:
            self.mismatches.append(
                OracleMismatch(
                    request_index=request.index,
                    template_id=request.template_id,
                    tenant=request.tenant,
                    backend=backend,
                    detail=detail,
                )
            )

