"""Multi-tenant traffic simulation: who asks what, when.

The simulator turns a :class:`TrafficSpec` into a deterministic list of
:class:`Request` objects — everything is drawn from one seeded
``random.Random``, so the same ``(templates, spec)`` pair always produces
the same traffic, byte for byte, whatever machine replays it:

* **Templates** (:class:`QueryTemplate`) are parameterized query shapes;
  instantiating one draws its selection constants from the RNG.  The same
  ``(template, params)`` pair always builds an identical
  :class:`~repro.algebra.logical.Query` under an identical name, so
  re-submitted traffic hits the serving layer's result caches exactly
  like re-submitted production queries would.
* **Tenants** are drawn Zipfian (exponent ``zipf``): tenant 0 is the
  hottest.  Each tenant prefers *its own* rotation of the template list
  (again Zipfian, exponent ``template_zipf``), so hot tenants hammer hot
  templates without every tenant hammering the *same* one.
* **Arrivals** are open-loop: :func:`arrival_offsets` precomputes each
  request's submission time, independent of how fast the system under
  test drains them.  ``poisson:RATE`` draws exponential inter-arrivals,
  ``bursty:LOW:HIGH:PERIOD`` alternates a quiet and a burst rate every
  ``PERIOD`` seconds, and ``closed`` submits back-to-back (offset 0) for
  max-throughput benchmarking.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ...algebra import builder as qb
from ...algebra.expressions import col, eq, lt
from ...algebra.logical import Query
from ..synthetic import zipfian_cdf, zipfian_index
from ..tpcd_queries import q3, q5, q7, q9, q10
from ...catalog.tpcd import tpcd_date

__all__ = [
    "ARRIVAL_KINDS",
    "QueryTemplate",
    "Request",
    "TrafficSpec",
    "arrival_offsets",
    "generate_traffic",
    "star_templates",
    "tpcd_templates",
    "templates_for",
]

ARRIVAL_KINDS: Tuple[str, ...] = ("closed", "poisson", "bursty")

#: A template's parameter draw: rng → (params tuple, query builder input).
ParamDraw = Callable[[random.Random], Tuple[object, ...]]
#: Builds the query from the drawn params under the given name.
QueryBuild = Callable[[str, Tuple[object, ...]], Query]


@dataclass(frozen=True)
class QueryTemplate:
    """A named, parameterized query shape.

    ``instantiate(rng)`` draws parameters and returns the concrete query.
    The query's *name* encodes template id + parameter digest — identical
    (template, params) pairs produce equal queries under equal names, so
    the serving layer's result cache (whose key includes the query name)
    sees repeated traffic as repeated, while distinct parameters stay
    distinct.
    """

    template_id: str
    draw: ParamDraw
    build: QueryBuild

    def instantiate(self, rng: random.Random) -> Tuple[Query, Tuple[object, ...]]:
        params = self.draw(rng)
        return self.build(self._name(params), params), params

    def with_params(self, params: Tuple[object, ...]) -> Query:
        """The exact query a previous instantiation with ``params`` built."""
        return self.build(self._name(params), params)

    def _name(self, params: Tuple[object, ...]) -> str:
        digest = hashlib.sha256(repr(params).encode("utf-8")).hexdigest()[:8]
        return f"{self.template_id}[{digest}]"


@dataclass(frozen=True)
class Request:
    """One simulated query submission."""

    index: int
    arrival: float  # seconds after run start (open-loop schedule)
    tenant: str
    template_id: str
    params: Tuple[object, ...]
    query: Query
    oracle: bool  # sampled for correctness replay


@dataclass(frozen=True)
class TrafficSpec:
    """Knobs of the simulated traffic (data sizing lives in ScaleSpec)."""

    requests: int = 200
    tenants: int = 8
    zipf: float = 1.1  # tenant popularity skew
    template_zipf: float = 1.0  # per-tenant template popularity skew
    arrival: str = "closed"
    oracle_sample: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.requests < 1:
            raise ValueError("requests must be positive")
        if self.tenants < 1:
            raise ValueError("tenants must be positive")
        if not 0.0 <= self.oracle_sample <= 1.0:
            raise ValueError("oracle_sample must be within [0, 1]")
        parse_arrival(self.arrival)  # validate eagerly: fail at spec build


# ---------------------------------------------------------------------------
# Arrival schedules (open-loop)
# ---------------------------------------------------------------------------


def parse_arrival(spec: str) -> Tuple[str, Tuple[float, ...]]:
    """``"poisson:200"`` → ``("poisson", (200.0,))``; raises on nonsense."""
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    if kind not in ARRIVAL_KINDS:
        raise ValueError(f"unknown arrival kind {kind!r}; expected one of {ARRIVAL_KINDS}")
    try:
        values = tuple(float(a) for a in args)
    except ValueError:
        raise ValueError(f"non-numeric arrival parameter in {spec!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite arrival parameter in {spec!r}")
    if kind == "closed":
        if values:
            raise ValueError("closed arrivals take no parameters")
    elif kind == "poisson":
        if len(values) != 1 or values[0] <= 0:
            raise ValueError("poisson arrivals need one positive rate: poisson:RATE")
    elif kind == "bursty":
        if len(values) != 3 or any(v <= 0 for v in values):
            raise ValueError(
                "bursty arrivals need three positive parameters: bursty:LOW:HIGH:PERIOD"
            )
    return kind, values


def arrival_offsets(spec: str, n: int, rng: random.Random) -> List[float]:
    """``n`` non-decreasing submission offsets (seconds) for one run."""
    kind, args = parse_arrival(spec)
    if kind == "closed":
        return [0.0] * n
    offsets: List[float] = []
    now = 0.0
    if kind == "poisson":
        (rate,) = args
        for _ in range(n):
            now += rng.expovariate(rate)
            offsets.append(now)
        return offsets
    low, high, period = args
    for _ in range(n):
        # Alternate LOW/HIGH rate phases of equal length; the draw uses
        # the rate of the phase the *previous* arrival landed in, which
        # keeps the generator one-pass and still strongly bimodal.
        rate = low if int(now / period) % 2 == 0 else high
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


# ---------------------------------------------------------------------------
# Template families
# ---------------------------------------------------------------------------


def star_templates(
    count: int,
    *,
    n_dimensions: int = 4,
    min_dimensions: int = 2,
    max_dimensions: int = 3,
    seed: int = 0,
) -> List[QueryTemplate]:
    """``count`` random star-join templates over ``fact`` + ``dim*``.

    Each template fixes a dimension subset, the aggregation key and the
    filtered dimension (drawn once from ``seed``); instantiation draws only
    the selection threshold, so one template's instances share their join
    structure, which signature routing and cache reuse depend on.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    templates: List[QueryTemplate] = []
    for t in range(count):
        k = rng.randint(min_dimensions, min(max_dimensions, n_dimensions))
        chosen = tuple(sorted(rng.sample(range(n_dimensions), k)))
        filtered = rng.choice(chosen)
        group_dim = chosen[0]

        def build(
            name: str,
            params: Tuple[object, ...],
            chosen=chosen,
            filtered=filtered,
            group_dim=group_dim,
        ) -> Query:
            (threshold,) = params
            plan = qb.scan("fact")
            for i in chosen:
                plan = plan.join(
                    qb.scan(f"dim{i}"), eq(col(f"f_d{i}_key"), col(f"d{i}_key"))
                )
            plan = plan.filter(lt(col(f"d{filtered}_attr"), threshold))
            return plan.aggregate(
                [f"d{group_dim}_attr"], [("sum", "f_value", "total")]
            ).query(name)

        templates.append(
            QueryTemplate(
                template_id=f"star{t}",
                draw=lambda rng: (rng.randrange(10, 91),),
                build=build,
            )
        )
    return templates


def tpcd_templates() -> List[QueryTemplate]:
    """Parameterized renditions of the Experiment-1 TPC-D queries.

    Parameter domains follow the paper's "repeated with different selection
    constants" setup, widened enough that Zipf-skewed traffic still has a
    long tail of distinct instantiations.
    """
    segments = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
    regions = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
    nations = ("FRANCE", "GERMANY", "RUSSIA", "CHINA", "BRAZIL", "JAPAN")

    def t(template_id: str, draw: ParamDraw, build: QueryBuild) -> QueryTemplate:
        return QueryTemplate(template_id=template_id, draw=draw, build=build)

    return [
        t(
            "q3",
            lambda rng: (rng.choice(segments), tpcd_date(1995, rng.randint(1, 12), 15)),
            lambda name, p: q3(name, p[0], p[1]),
        ),
        t(
            "q5",
            lambda rng: (rng.choice(regions), rng.randint(1992, 1997)),
            lambda name, p: q5(name, p[0], p[1]),
        ),
        t(
            "q7",
            lambda rng: tuple(rng.sample(nations, 2)),
            lambda name, p: q7(name, p[0], p[1]),
        ),
        t(
            "q9",
            lambda rng: (lambda low: (low, low + 10))(rng.randrange(1, 40)),
            lambda name, p: q9(name, p[0], p[1]),
        ),
        t(
            "q10",
            lambda rng: (rng.randint(1992, 1997), rng.choice((1, 4, 7, 10))),
            lambda name, p: q10(name, p[0], p[1]),
        ),
    ]


def templates_for(
    workload: str,
    *,
    count: int = 8,
    n_dimensions: int = 4,
    seed: int = 0,
) -> List[QueryTemplate]:
    """The template family of a harness workload (star / tpcd / mixed)."""
    if workload == "star":
        return star_templates(count, n_dimensions=n_dimensions, seed=seed)
    if workload == "tpcd":
        return tpcd_templates()
    if workload == "mixed":
        star_count = max(1, count - len(tpcd_templates()))
        return (
            star_templates(star_count, n_dimensions=n_dimensions, seed=seed)
            + tpcd_templates()
        )
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Traffic generation
# ---------------------------------------------------------------------------


def generate_traffic(
    templates: Sequence[QueryTemplate],
    spec: TrafficSpec,
    *,
    seed: Optional[int] = None,
) -> List[Request]:
    """The deterministic request list of one run, sorted by arrival.

    One RNG drives every draw (tenant, template, parameters, oracle
    sampling, arrival schedule), so traffic is a pure function of
    ``(templates, spec)`` — the regression the RNG-hygiene tests pin.
    """
    if not templates:
        raise ValueError("at least one template is required")
    rng = random.Random(spec.seed if seed is None else seed)
    tenant_cdf = zipfian_cdf(spec.tenants, spec.zipf)
    template_cdf = zipfian_cdf(len(templates), spec.template_zipf)
    offsets = arrival_offsets(spec.arrival, spec.requests, rng)
    tenant_width = max(2, len(str(spec.tenants - 1)))
    requests: List[Request] = []
    for index in range(spec.requests):
        tenant_index = zipfian_index(rng, tenant_cdf)
        # Rotate the template ranking by tenant: each tenant's hottest
        # template is its own, so tenant skew and template skew compose
        # instead of collapsing onto one globally hot query.
        rank = zipfian_index(rng, template_cdf)
        template = templates[(rank + tenant_index) % len(templates)]
        query, params = template.instantiate(rng)
        requests.append(
            Request(
                index=index,
                arrival=offsets[index],
                tenant=f"t{tenant_index:0{tenant_width}d}",
                template_id=template.template_id,
                params=params,
                query=query,
                oracle=rng.random() < spec.oracle_sample,
            )
        )
    return requests
