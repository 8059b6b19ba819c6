"""In-memory tables and tiny synthetic data generators for the executor.

The paper's experiments never execute the plans — they compare *estimated*
costs — but this reproduction includes a small iterator-model executor so
that the sharing machinery can be validated end to end: a consolidated plan
that materializes and reuses common subexpressions must return exactly the
same rows as the plain, unshared plans.  The generators here produce tiny,
referentially consistent TPC-D-like and A/B/C/D databases for those tests
and for the runnable examples.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

if TYPE_CHECKING:
    from .columnar.batch import ColumnBatch

__all__ = ["Row", "Database", "tiny_tpcd_database", "example1_database"]

Row = Dict[str, object]


@dataclass
class Database:
    """A named collection of in-memory tables (lists of plain dict rows).

    The database carries a monotone :attr:`version` that is bumped by every
    mutation made through its API (``add_table``/``replace_table``/``touch``);
    caches of derived results — most importantly the serving layer's
    :class:`~repro.service.matcache.MaterializationCache` — compare versions
    to detect that their contents have gone stale.  The same bump drops the
    per-table column images (:meth:`column_image`) the columnar executor
    scans, and with each image the key indexes its hash joins built on it
    (the image's :class:`~repro.execution.columnar.batch.KeyIndex`).  Code
    that mutates table lists in place must call :meth:`touch` afterwards:
    until it does, the change is invisible to columnar scans as well as to
    the caches.
    """

    tables: Dict[str, List[Row]] = field(default_factory=dict)
    _version: int = field(default=0, repr=False, compare=False)
    _fingerprint: Optional[Tuple[int, str]] = field(
        default=None, repr=False, compare=False
    )
    # (version, {table: image}) on the object, so images die with it.
    _images: Optional[Tuple[int, Dict[str, "ColumnBatch"]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def version(self) -> int:
        """Monotone counter bumped on every data change."""
        return self._version

    def touch(self) -> int:
        """Record an out-of-band data change (in-place row mutation) and drop
        the column images."""
        self._version += 1
        self._images = None
        return self._version

    def column_image(self, name: str) -> "ColumnBatch":
        """The table transposed once per :attr:`version`: a ``ColumnBatch``
        with the rows' own (unqualified) keys, masks where rows differ, and
        a :class:`~repro.execution.columnar.batch.KeyIndex` its scan views
        share.

        Every columnar scan of the table shares its value lists, so nobody
        may mutate them (the :class:`ColumnBatch` immutability contract).
        """
        # Same idiom as fingerprint(): stamp with the version captured BEFORE
        # reading the rows, so a build that a change raced is filed under
        # the old version and the next call rebuilds.
        version = self._version
        images = self._images
        if images is None or images[0] != version:
            images = self._images = (version, {})
        image = images[1].get(name)
        if image is None:
            from .columnar.batch import ColumnBatch  # the package imports this module

            image = images[1][name] = ColumnBatch.from_rows(self.table(name)).indexed()
        return image

    def fingerprint(self) -> str:
        """A stable content hash of the data: equal bytes ⇒ equal fingerprint.

        This is the **durable** data-version token the serving layer stamps
        its caches with.  Unlike :attr:`version` (process-local) or the
        object's ``id()`` (restart-random), the fingerprint is derived from
        the table contents alone, so a restarted process that loads the
        same data computes the same token — which is exactly what lets a
        :class:`~repro.storage.spill.SpillingMaterializationCache` trust
        the spill files a previous process wrote, and makes files written
        against *different* data reliably stale.

        The hash is recomputed lazily per :attr:`version` (mutations
        invalidate the memo), and covers table names, row order and every
        key/value — table scans are order-sensitive, so row order is part
        of the identity.
        """
        if self._fingerprint is not None and self._fingerprint[0] == self._version:
            return self._fingerprint[1]
        # Capture the version BEFORE hashing: a mutation racing the hash
        # bumps the version and must invalidate this memo entry — caching
        # the (possibly torn) digest under the *new* version would hide the
        # data change from every token comparison that follows.
        version = self._version
        digest = hashlib.sha256()

        def chunk(data: bytes) -> None:
            # Every variable-length piece is length-prefixed: separator
            # characters alone would let differently-structured content
            # (e.g. a key containing the separator) collide.
            digest.update(b"%d:" % len(data))
            digest.update(data)

        for name in sorted(self.tables):
            rows = self.tables[name]
            chunk(name.encode("utf-8"))
            digest.update(b"%d;" % len(rows))
            for row in rows:
                digest.update(b"%d," % len(row))
                for key in sorted(row):
                    value = row[key]
                    chunk(key.encode("utf-8"))
                    chunk(type(value).__name__.encode("utf-8"))
                    chunk(repr(value).encode("utf-8"))
        value = digest.hexdigest()
        self._fingerprint = (version, value)
        return value

    def add_table(self, name: str, rows: Iterable[Row]) -> None:
        self.tables[name] = [dict(row) for row in rows]
        self.touch()

    def replace_table(self, name: str, rows: Iterable[Row]) -> None:
        """Swap a table's contents (same as ``add_table`` but requires existence)."""
        if name not in self.tables:
            raise KeyError(f"unknown table {name!r}")
        self.add_table(name, rows)

    def table(self, name: str) -> List[Row]:
        if name not in self.tables:
            raise KeyError(f"unknown table {name!r}")
        return self.tables[name]

    def row_count(self, name: str) -> int:
        return len(self.table(name))

    def __contains__(self, name: str) -> bool:
        return name in self.tables


def tiny_tpcd_database(
    *,
    seed: int = 0,
    customers: int = 40,
    suppliers: int = 10,
    parts: int = 30,
    orders: int = 120,
    max_lines_per_order: int = 4,
) -> Database:
    """A tiny but referentially consistent TPC-D-like database.

    Cardinalities are intentionally small (hundreds of rows) so that
    executor-level correctness tests run in milliseconds; the schema matches
    :func:`repro.catalog.tpcd.tpcd_catalog`.
    """
    rng = random.Random(seed)
    db = Database()

    regions = [
        {"r_regionkey": i, "r_name": name, "r_comment": f"region {i}"}
        for i, name in enumerate(["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"])
    ]
    db.add_table("region", regions)

    nation_names = [
        "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
        "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
        "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
        "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
    ]
    nations = [
        {
            "n_nationkey": i,
            "n_name": name,
            "n_regionkey": i % 5,
            "n_comment": f"nation {i}",
        }
        for i, name in enumerate(nation_names)
    ]
    db.add_table("nation", nations)

    db.add_table(
        "supplier",
        [
            {
                "s_suppkey": i + 1,
                "s_name": f"Supplier#{i + 1:04d}",
                "s_address": f"addr-{i}",
                "s_nationkey": rng.randrange(25),
                "s_phone": f"27-{i:03d}",
                "s_acctbal": round(rng.uniform(-999.99, 9999.99), 2),
                "s_comment": "",
            }
            for i in range(suppliers)
        ],
    )

    segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
    db.add_table(
        "customer",
        [
            {
                "c_custkey": i + 1,
                "c_name": f"Customer#{i + 1:06d}",
                "c_address": f"addr-{i}",
                "c_nationkey": rng.randrange(25),
                "c_phone": f"13-{i:03d}",
                "c_acctbal": round(rng.uniform(-999.99, 9999.99), 2),
                "c_mktsegment": rng.choice(segments),
                "c_comment": "",
            }
            for i in range(customers)
        ],
    )

    db.add_table(
        "part",
        [
            {
                "p_partkey": i + 1,
                "p_name": f"part {i + 1}",
                "p_mfgr": f"Manufacturer#{1 + i % 5}",
                "p_brand": f"Brand#{1 + i % 25}",
                "p_type": f"TYPE {i % 150}",
                "p_size": 1 + rng.randrange(50),
                "p_container": f"BOX {i % 40}",
                "p_retailprice": round(900 + rng.uniform(0, 1200), 2),
                "p_comment": "",
            }
            for i in range(parts)
        ],
    )

    partsupp: List[Row] = []
    for part_index in range(parts):
        for supplier_key in rng.sample(range(1, suppliers + 1), min(2, suppliers)):
            partsupp.append(
                {
                    "ps_partkey": part_index + 1,
                    "ps_suppkey": supplier_key,
                    "ps_availqty": rng.randrange(1, 9999),
                    "ps_supplycost": round(rng.uniform(1.0, 1000.0), 2),
                    "ps_comment": "",
                }
            )
    db.add_table("partsupp", partsupp)

    order_rows: List[Row] = []
    lineitem_rows: List[Row] = []
    line_counter = 0
    for order_index in range(orders):
        order_key = order_index + 1
        order_date = 19920101 + rng.randrange(0, 60000)
        order_rows.append(
            {
                "o_orderkey": order_key,
                "o_custkey": rng.randrange(1, customers + 1),
                "o_orderstatus": rng.choice(["F", "O", "P"]),
                "o_totalprice": round(rng.uniform(850, 560000), 2),
                "o_orderdate": order_date,
                "o_orderpriority": f"{1 + rng.randrange(5)}-PRIORITY",
                "o_clerk": f"Clerk#{rng.randrange(100):03d}",
                "o_shippriority": 0,
                "o_comment": "",
            }
        )
        for line_number in range(1, rng.randrange(1, max_lines_per_order + 1) + 1):
            line_counter += 1
            ps = rng.choice(partsupp)
            lineitem_rows.append(
                {
                    "l_orderkey": order_key,
                    "l_partkey": ps["ps_partkey"],
                    "l_suppkey": ps["ps_suppkey"],
                    "l_linenumber": line_number,
                    "l_quantity": float(rng.randrange(1, 51)),
                    "l_extendedprice": round(rng.uniform(900, 105000), 2),
                    "l_discount": round(rng.choice(range(0, 11)) / 100.0, 2),
                    "l_tax": round(rng.choice(range(0, 9)) / 100.0, 2),
                    "l_returnflag": rng.choice(["A", "N", "R"]),
                    "l_linestatus": rng.choice(["F", "O"]),
                    "l_shipdate": order_date + rng.randrange(1, 200),
                    "l_commitdate": order_date + rng.randrange(1, 200),
                    "l_receiptdate": order_date + rng.randrange(1, 250),
                    "l_shipinstruct": "NONE",
                    "l_shipmode": rng.choice(["AIR", "RAIL", "SHIP", "TRUCK"]),
                    "l_comment": "",
                }
            )
    db.add_table("orders", order_rows)
    db.add_table("lineitem", lineitem_rows)
    return db


def example1_database(
    *, seed: int = 0, large_rows: int = 600, small_rows: int = 60
) -> Database:
    """Data for the Example-1 catalog (relations a, b, c, d with chained joins).

    Mirrors :func:`repro.workloads.synthetic.example1_catalog`: B is the
    large relation, A/C/D are small, ``a_join`` references ``b_key``,
    ``b_join`` references ``c_key`` and ``c_join`` references ``d_key``.
    """
    rng = random.Random(seed)
    db = Database()
    sizes = {"a": small_rows, "b": large_rows, "c": small_rows, "d": small_rows}
    join_targets = {"a": large_rows, "b": small_rows * 10, "c": small_rows, "d": small_rows}
    for name in ("a", "b", "c", "d"):
        db.add_table(
            name,
            [
                {
                    f"{name}_key": i,
                    f"{name}_join": rng.randrange(join_targets[name]),
                    f"{name}_payload": f"{name}-{i}",
                }
                for i in range(sizes[name])
            ],
        )
    return db
