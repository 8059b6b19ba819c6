"""Scale-factor control: parameterized databases + catalogs for the harness.

A :class:`ScaleSpec` fixes the *shape* of the data — base row counts, key
fanouts, value skew — and one ``scale`` multiplier sizes it, so a world's
data is reproducible byte-for-byte from ``(seed, spec)`` alone.
:func:`build_world` turns a spec into a :class:`HarnessWorld`: the catalog
the optimizer plans against, the :class:`~repro.execution.data.Database`
the executors run on, and — when the workload contains the star tables —
a drift handle built on the existing
:func:`~repro.workloads.synthetic.drifting_star_database` machinery, so a
mid-run :meth:`~HarnessWorld.inject_drift` mutates the *same* database
instance (bumping its version, invalidating serving caches) exactly the
way the adaptive subsystem's tests and benchmarks do.

Three workloads:

* ``star``  — the selective star-join schema (``fact`` + ``dim0..n``),
* ``tpcd``  — the referentially consistent tiny TPC-D database,
* ``mixed`` — both table families in **one** database and catalog (the
  names never collide), so one session serves heterogeneous traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from ...catalog.catalog import Catalog
from ...catalog.tpcd import tpcd_catalog
from ...execution.data import Database, tiny_tpcd_database
from ..synthetic import drifting_star_database, star_schema_catalog

__all__ = ["ScaleSpec", "HarnessWorld", "WORKLOADS", "build_world", "merge_catalogs"]

#: The workload families the harness can generate.
WORKLOADS: Tuple[str, ...] = ("star", "tpcd", "mixed")


@dataclass(frozen=True)
class ScaleSpec:
    """Sizing of the harness databases; ``scale`` multiplies the base counts.

    The base sizes (scale 1.0) match the repository's differential-test
    defaults, so ``ScaleSpec()`` produces the data shape every executor
    backend is already proven bit-identical on — the harness then only has
    to turn the multiplier up.
    """

    scale: float = 1.0
    #: Star schema: dimensions, base fact/dimension rows, key fanout, skew.
    n_dimensions: int = 4
    star_fact_rows: int = 300
    star_dimension_rows: int = 40
    key_fanout: int = 4
    value_skew: float = 0.0
    #: Drift shape (see :func:`~repro.workloads.synthetic.drifting_star_database`).
    drift_factor: float = 1.0
    hot_fraction: float = 0.2
    #: TPC-D: base entity counts for :func:`~repro.execution.data.tiny_tpcd_database`.
    tpcd_orders: int = 120
    tpcd_customers: int = 40
    tpcd_parts: int = 30
    tpcd_suppliers: int = 10

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.n_dimensions < 1:
            raise ValueError("n_dimensions must be positive")

    def _scaled(self, base: int) -> int:
        return max(4, int(round(base * self.scale)))

    @property
    def fact_rows(self) -> int:
        return self._scaled(self.star_fact_rows)

    @property
    def dimension_rows(self) -> int:
        # Dimensions grow sublinearly, like TPC-H's fixed-size lookup
        # tables: scaling facts 4x without re-keying every dimension keeps
        # the fact:dimension ratio drifting the way real stars do.
        return max(4, int(round(self.star_dimension_rows * self.scale ** 0.5)))

    @property
    def orders(self) -> int:
        return self._scaled(self.tpcd_orders)

    @property
    def customers(self) -> int:
        return self._scaled(self.tpcd_customers)

    @property
    def parts(self) -> int:
        return self._scaled(self.tpcd_parts)

    @property
    def suppliers(self) -> int:
        return self._scaled(self.tpcd_suppliers)


@dataclass
class HarnessWorld:
    """One harness setting's planning and execution state.

    Attributes:
        workload: ``star``, ``tpcd`` or ``mixed``.
        spec: the :class:`ScaleSpec` the data was generated from.
        seed: the data seed (independent of the traffic seed).
        catalog: what the optimizer plans against — statistics sized to the
            *initial* data, which is exactly what makes injected drift
            visible to the adaptive estimator as an estimate/observation gap.
        database: the one mutable database the session executes on.
        drift_steps_applied: how many drift injections have happened.
    """

    workload: str
    spec: ScaleSpec
    seed: int
    catalog: Catalog
    database: Database
    drift_steps_applied: int = 0
    _drift: Optional[Iterator[Database]] = field(default=None, repr=False)

    @property
    def supports_drift(self) -> bool:
        return self._drift is not None

    def inject_drift(self) -> None:
        """Advance the drifting generator: redraw the fact table in place.

        The database version bumps (``replace_table``), so the session's
        materialization cache and feedback store see a real
        data change — a drifted run that kept serving stale cached rows
        would fail its correctness oracle, which replays against the same
        database *after* the step.

        Raises:
            RuntimeError: the world has no star tables, or every one of the
                ``max_drift_steps`` it was built with is spent.
        """
        if self._drift is None:
            raise RuntimeError(
                f"workload {self.workload!r} has no star tables to drift; "
                "use the star or mixed workload"
            )
        if next(self._drift, None) is None:
            raise RuntimeError(
                f"drift budget spent after {self.drift_steps_applied} step(s); "
                "build the world with a larger max_drift_steps"
            )
        self.drift_steps_applied += 1


def merge_catalogs(*catalogs: Catalog) -> Catalog:
    """One catalog holding every table of the inputs (names must not collide)."""
    merged = Catalog()
    for catalog in catalogs:
        for name in catalog.tables:
            merged.add_table(
                catalog.tables[name],
                catalog.statistics[name],
                catalog.table_indexes(name),
            )
    return merged


def build_world(
    spec: ScaleSpec,
    workload: str = "star",
    *,
    seed: int = 0,
    max_drift_steps: int = 0,
) -> HarnessWorld:
    """Generate the catalog + database (+ drift handle) for one setting.

    ``max_drift_steps`` pre-sizes the drifting generator: a driver that
    drifts the data mid-run passes the number of steps its schedule takes,
    and calling :meth:`HarnessWorld.inject_drift` more often than that
    raises ``RuntimeError``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

    star_catalog = star_schema_catalog(
        n_dimensions=spec.n_dimensions,
        fact_rows=spec.fact_rows,
        dimension_rows=spec.dimension_rows,
        key_fanout=spec.key_fanout,
    )

    drift: Optional[Iterator[Database]] = None
    if workload in ("star", "mixed"):
        drift = drifting_star_database(
            passes=max_drift_steps + 1,
            seed=seed,
            n_dimensions=spec.n_dimensions,
            fact_rows=spec.fact_rows,
            dimension_rows=spec.dimension_rows,
            key_fanout=spec.key_fanout,
            value_skew=spec.value_skew,
            drift_factor=spec.drift_factor,
            hot_fraction=spec.hot_fraction,
        )
        database = next(drift)
        catalog = star_catalog
        if workload == "mixed":
            tpcd = _tpcd_database(spec, seed)
            for name, rows in tpcd.tables.items():
                database.add_table(name, rows)
            catalog = merge_catalogs(star_catalog, tpcd_catalog(1.0))
    else:
        database = _tpcd_database(spec, seed)
        catalog = tpcd_catalog(1.0)

    return HarnessWorld(
        workload=workload,
        spec=spec,
        seed=seed,
        catalog=catalog,
        database=database,
        _drift=drift,
    )


def _tpcd_database(spec: ScaleSpec, seed: int) -> Database:
    return tiny_tpcd_database(
        seed=seed,
        customers=spec.customers,
        suppliers=spec.suppliers,
        parts=spec.parts,
        orders=spec.orders,
    )
