"""query_signature: the memo-free semantic fingerprint of a query.

It must equal the signature ``DagBuilder.intern_query`` assigns the query's
root group, and — as the key a front end would route traffic by — be a pure
function of the query's semantics: the same parameters give the same
signature under any query name, and distinct parameters give distinct
signatures.  The stability properties are fuzzed over harness template
instantiations with fixed seeds, as is the documented routing recipe
(``sha256(canonical_key(sig))`` mod N): process-independent, stable for
resubmitted traffic, and spreading a template over several processes.
"""

import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.catalog.tpcd import tpcd_catalog
from repro.dag.build import DagBuilder, query_signature
from repro.dag.fingerprint import canonical_key
from repro.workloads.batches import composite_batch
from repro.workloads.harness import ScaleSpec, build_world, star_templates, tpcd_templates
from repro.workloads.harness.traffic import templates_for
from repro.workloads.synthetic import random_star_batch, star_schema_catalog

N_DIMENSIONS = 4


@pytest.fixture(scope="module")
def tpcd():
    return tpcd_catalog(0.05)


@pytest.fixture(scope="module")
def star_catalog():
    return star_schema_catalog(n_dimensions=N_DIMENSIONS)


@pytest.fixture(scope="module")
def star_world():
    return build_world(ScaleSpec(), "star", seed=0)


@pytest.fixture(scope="module")
def mixed_world():
    return build_world(ScaleSpec(), "mixed", seed=0)


class TestQuerySignature:
    def test_matches_memo_root_signature(self, tpcd):
        """query_signature must equal what intern_query's memo assigns."""
        builder = DagBuilder(tpcd)
        for query in composite_batch(3):
            root, _ = builder.intern_query(query)
            assert canonical_key(builder.memo.signature_of(root)) == canonical_key(
                query_signature(query, tpcd)
            )

    def test_matches_memo_on_star_queries(self, star_catalog):
        builder = DagBuilder(star_catalog)
        for query in random_star_batch(6, seed=3, n_dimensions=N_DIMENSIONS):
            root, _ = builder.intern_query(query)
            assert canonical_key(builder.memo.signature_of(root)) == canonical_key(
                query_signature(query, star_catalog)
            )


def test_same_params_same_signature_any_name(star_world):
    rng = random.Random(42)
    for template in star_templates(6, seed=1):
        for _ in range(10):
            query, params = template.instantiate(rng)
            replay = template.with_params(params)
            renamed = template.build("totally-different-name", params)
            sig = query_signature(query, star_world.catalog)
            assert sig == query_signature(replay, star_world.catalog)
            assert sig == query_signature(renamed, star_world.catalog)
            assert canonical_key(sig) == canonical_key(
                query_signature(renamed, star_world.catalog)
            )


def test_distinct_params_distinct_signatures(star_world):
    rng = random.Random(11)
    for template in star_templates(5, seed=5):
        seen = {}
        for _ in range(25):
            query, params = template.instantiate(rng)
            key = canonical_key(query_signature(query, star_world.catalog))
            if params in seen:
                assert seen[params] == key
            else:
                assert key not in seen.values(), (
                    f"{template.template_id}: params {params} collided with "
                    f"{[p for p, k in seen.items() if k == key]}"
                )
                seen[params] = key


def test_tpcd_template_signatures_distinct_per_params(mixed_world):
    rng = random.Random(19)
    keys = set()
    instances = 0
    for template in tpcd_templates():
        seen_params = set()
        for _ in range(8):
            query, params = template.instantiate(rng)
            if params in seen_params:
                continue
            seen_params.add(params)
            instances += 1
            keys.add(canonical_key(query_signature(query, mixed_world.catalog)))
    assert len(keys) == instances


# ------------------------------------------------- routing over N processes


def route(query, catalog, processes):
    """The routing recipe documented on ``query_signature``."""
    key = canonical_key(query_signature(query, catalog))
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") % processes


def test_routing_key_is_identical_in_a_differently_salted_process(star_world):
    """A restarted front end must route exactly as before: the key never
    picks up Python's per-process string-hash salt."""
    template = star_templates(1, seed=0)[0]
    query = template.with_params((50,))
    here = [route(query, star_world.catalog, n) for n in (2, 3, 4, 7, 16)]
    script = (
        "from repro.dag.build import query_signature\n"
        "from repro.dag.fingerprint import canonical_key\n"
        "from repro.workloads.harness import ScaleSpec, build_world, star_templates\n"
        "import hashlib\n"
        "world = build_world(ScaleSpec(), 'star', seed=0)\n"
        "query = star_templates(1, seed=0)[0].with_params((50,))\n"
        "key = canonical_key(query_signature(query, world.catalog))\n"
        "value = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], 'big')\n"
        "print(','.join(str(value % n) for n in (2, 3, 4, 7, 16)))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout.strip()
    assert [int(part) for part in out.split(",")] == here


def test_routing_key_does_not_depend_on_the_catalog_object():
    """Each serving process builds its own catalog; equal catalogs must
    yield equal keys."""
    first = star_schema_catalog(n_dimensions=N_DIMENSIONS)
    second = star_schema_catalog(n_dimensions=N_DIMENSIONS)
    assert first is not second
    for query in random_star_batch(6, seed=8, n_dimensions=N_DIMENSIONS):
        assert canonical_key(query_signature(query, first)) == canonical_key(
            query_signature(query, second)
        )


@pytest.mark.parametrize("processes", [2, 4, 7])
def test_same_params_route_to_the_same_process(star_world, processes):
    rng = random.Random(7)
    for template in star_templates(4, seed=3):
        for _ in range(5):
            query, params = template.instantiate(rng)
            renamed = template.build("resubmitted", params)
            assert route(query, star_world.catalog, processes) == route(
                renamed, star_world.catalog, processes
            )


def test_template_instantiations_spread_over_processes(star_world):
    processes = 4
    rng = random.Random(23)
    spread = []
    for template in templates_for("star", count=6, seed=9):
        hit = Counter()
        for _ in range(40):
            query, _ = template.instantiate(rng)
            hit[route(query, star_world.catalog, processes)] += 1
        spread.append(len(hit))
    # Not every template must touch all 4 processes (few distinct params
    # per template), but signature routing must not pin template traffic:
    # on average one template's instantiations reach several processes.
    assert sum(spread) / len(spread) >= 2.5
    assert max(spread) == processes


@pytest.mark.parametrize("world", ["star_world", "mixed_world"])
def test_harness_templates_match_the_memo_root_signature(world, request):
    """The routing key is the memo's own fingerprint for every harness
    template, so a routed query lands where its cache line lives."""
    catalog = request.getfixturevalue(world).catalog
    builder = DagBuilder(catalog)
    rng = random.Random(31)
    templates = star_templates(4, seed=2) if world == "star_world" else tpcd_templates()
    for template in templates:
        query, _ = template.instantiate(rng)
        root, _ = builder.intern_query(query)
        assert canonical_key(builder.memo.signature_of(root)) == canonical_key(
            query_signature(query, catalog)
        )
