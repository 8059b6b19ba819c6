"""Statistical properties of the harness generators, on fixed seeds.

Every test here draws from a *fixed* seed, so the sampled statistics are
deterministic — the assertions use generous analytic tolerances, but they
can never flake: a failure means the generator's distribution actually
changed, not that the dice came up wrong.
"""

import random
from collections import Counter

import pytest

from repro.workloads.harness import (
    ScaleSpec,
    TrafficSpec,
    arrival_offsets,
    build_world,
    generate_traffic,
    star_templates,
)
from repro.workloads.harness.traffic import parse_arrival
from repro.workloads.synthetic import zipfian_cdf, zipfian_index

# ---------------------------------------------------------------------------
# Zipfian sampling
# ---------------------------------------------------------------------------


def test_zipf_frequencies_match_analytic_pmf():
    n, s, draws = 8, 1.2, 40_000
    cdf = zipfian_cdf(n, s)
    rng = random.Random(1234)
    counts = Counter(zipfian_index(rng, cdf) for _ in range(draws))
    total = sum((k + 1) ** -s for k in range(n))
    for k in range(n):
        expected = (k + 1) ** -s / total
        observed = counts[k] / draws
        assert observed == pytest.approx(expected, abs=0.01), f"rank {k}"


def test_zipf_is_monotone_head_heavy():
    cdf = zipfian_cdf(16, 1.1)
    rng = random.Random(7)
    counts = Counter(zipfian_index(rng, cdf) for _ in range(20_000))
    assert counts[0] > counts[7] > counts[15]
    # The head dominates: rank 0 of a 16-way s=1.1 Zipf carries ~31%.
    assert counts[0] / 20_000 > 0.25


def test_tenant_skew_flows_through_traffic():
    templates = star_templates(4)
    traffic = generate_traffic(
        templates, TrafficSpec(requests=4000, tenants=8, zipf=1.3, seed=5)
    )
    by_tenant = Counter(r.tenant for r in traffic)
    ranked = [name for name, _ in by_tenant.most_common()]
    assert ranked[0] == "t00", "tenant 0 must be the hottest under Zipf"
    assert by_tenant["t00"] > 3 * by_tenant[ranked[-1]]


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------


def test_poisson_interarrival_mean_matches_rate():
    rate = 100.0
    offsets = arrival_offsets(f"poisson:{rate}", 8000, random.Random(99))
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(1.0 / rate, rel=0.05)
    assert offsets == sorted(offsets)
    assert all(g >= 0 for g in gaps)


def test_poisson_interarrival_is_memoryless_shaped():
    # For an exponential, P(gap > mean) = 1/e ~ 0.368; a uniform or
    # constant-gap generator would be nowhere near that.
    offsets = arrival_offsets("poisson:50", 8000, random.Random(3))
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    mean = sum(gaps) / len(gaps)
    over_mean = sum(1 for g in gaps if g > mean) / len(gaps)
    assert over_mean == pytest.approx(0.368, abs=0.03)


def test_bursty_arrivals_are_bimodal():
    low, high, period = 20.0, 400.0, 0.5
    offsets = arrival_offsets(f"bursty:{low}:{high}:{period}", 6000, random.Random(17))
    phase_counts = Counter(int(t / period) % 2 for t in offsets)
    # Quiet phases (even) admit ~rate*period arrivals each, burst phases
    # ~20x more; overall the burst phase must dominate heavily.
    assert phase_counts[1] > 5 * phase_counts[0]
    assert offsets == sorted(offsets)


def test_closed_arrivals_are_all_zero():
    assert arrival_offsets("closed", 17, random.Random(0)) == [0.0] * 17


@pytest.mark.parametrize(
    "bad",
    [
        "poisson",
        "poisson:0",
        "poisson:-5",
        "poisson:1:2",
        "bursty:1:2",
        "closed:1",
        "sine:3",
        "poisson:x",
        "poisson:nan",
        "bursty:1:2:nan",
        "poisson:inf",
    ],
)
def test_arrival_spec_validation(bad):
    with pytest.raises(ValueError):
        parse_arrival(bad)


# ---------------------------------------------------------------------------
# Drift targeting
# ---------------------------------------------------------------------------


def test_drift_changes_exactly_the_fact_table():
    world = build_world(ScaleSpec(), "star", seed=4, max_drift_steps=2)
    before = {name: [dict(r) for r in rows] for name, rows in world.database.tables.items()}
    version = world.database.version
    fingerprint = world.database.fingerprint()

    world.inject_drift()

    assert world.database.version > version, "drift must bump the data version"
    assert world.database.fingerprint() != fingerprint
    changed = {
        name
        for name, rows in world.database.tables.items()
        if before[name] != [dict(r) for r in rows]
    }
    assert changed == {"fact"}, f"drift must only rewrite the fact table, got {changed}"
    assert world.drift_steps_applied == 1


def test_drift_on_mixed_world_leaves_tpcd_tables_alone():
    world = build_world(ScaleSpec(), "mixed", seed=4, max_drift_steps=1)
    before = {name: [dict(r) for r in rows] for name, rows in world.database.tables.items()}
    world.inject_drift()
    changed = {
        name
        for name, rows in world.database.tables.items()
        if before[name] != [dict(r) for r in rows]
    }
    assert changed == {"fact"}


def test_tpcd_world_refuses_drift():
    world = build_world(ScaleSpec(), "tpcd", seed=4, max_drift_steps=1)
    assert not world.supports_drift
    with pytest.raises(RuntimeError, match="no star tables"):
        world.inject_drift()


def test_star_world_without_drift_budget_names_max_drift_steps():
    world = build_world(ScaleSpec(), "star", seed=4)
    with pytest.raises(RuntimeError, match="max_drift_steps"):
        world.inject_drift()
    assert world.drift_steps_applied == 0


def test_drift_past_budget_names_max_drift_steps():
    world = build_world(ScaleSpec(), "star", seed=4, max_drift_steps=1)
    world.inject_drift()
    with pytest.raises(RuntimeError, match="max_drift_steps"):
        world.inject_drift()
    assert world.drift_steps_applied == 1


def test_value_skew_concentrates_fact_keys():
    uniform = build_world(ScaleSpec(scale=2.0), "star", seed=9).database
    skewed = build_world(ScaleSpec(scale=2.0, value_skew=1.5), "star", seed=9).database

    def top_share(db):
        keys = Counter(row["f_d0_key"] for row in db.table("fact"))
        return keys.most_common(1)[0][1] / db.row_count("fact")

    assert top_share(skewed) > 2 * top_share(uniform)
