import math
import random

import pytest

from tracecloak.attacks import (
    AttackReport,
    brute_force_attack,
    direct_attack,
    expected_direct_solves,
    expected_direct_solves_log10,
    matches_target,
    projected_table_bytes,
    table_attack_build,
    table_attack_query,
)
from tracecloak.encoder import PolyCodeParams, RrnsParams, encode

DESK = PolyCodeParams(M=10**4, p=31, n=10, k=2)


def test_brute_force_recovers():
    rng = random.Random(0)
    x = rng.randrange(DESK.M)
    e = encode(x, DESK, rng)
    report = brute_force_attack(e, DESK, DESK.tau)
    assert report.recovered is not None
    assert matches_target(report.recovered, DESK, e, DESK.tau)
    assert report.encodings_performed <= DESK.M


def test_brute_force_exact_at_k0():
    params = PolyCodeParams(M=10**4, p=31, n=10, k=0)
    rng = random.Random(1)
    x = rng.randrange(params.M)
    e = encode(x, params, rng)
    report = brute_force_attack(e, params, 0)
    assert report.recovered == x


def test_brute_force_none_for_random_vector():
    # a generic non-decreasing vector is matched by (almost) no world point;
    # at stringent tau=0 the scan comes back empty
    params = PolyCodeParams(M=10**3, p=101, n=12, k=0)
    rng = random.Random(2)
    misses = 0
    for _ in range(20):
        e = tuple(sorted(rng.randrange(params.p) for _ in range(params.n)))
        if brute_force_attack(e, params, 0).recovered is None:
            misses += 1
    assert misses == 20


def test_table_attack():
    params = PolyCodeParams(M=2000, p=31, n=10, k=2)
    rng = random.Random(3)
    table = table_attack_build(params, rng)
    assert len(table) == params.M  # one entry per world point
    x = rng.randrange(params.M)
    e = encode(x, params, rng)
    report = table_attack_query(table, e, params.tau)
    assert x in report.candidates


def test_projected_table_size_full_scale():
    params = PolyCodeParams(M=10**19, p=503, n=100, k=10)
    assert projected_table_bytes(params) >= 1e21


def test_direct_attack_exhaustive_k0():
    # no corruption, n = m: the identity assignment appears in the enumeration.
    # With n = m the sorted code only pins down the value multiset, so any
    # permuted assignment solves too; the guarantee is an exact-match preimage,
    # not x itself.
    params = PolyCodeParams(M=29791, p=31, n=3, k=0)
    assert params.m == 3
    rng = random.Random(4)
    x = rng.randrange(params.M)
    e = encode(x, params, rng)
    report = direct_attack(e, params, tau=0, mode="exhaustive")
    assert report.recovered is not None
    assert matches_target(report.recovered, params, e, 0)


def test_direct_attack_randomized_recovers():
    rng = random.Random(5)
    for _ in range(20):
        x = rng.randrange(DESK.M)
        e = encode(x, DESK, rng)
        report = direct_attack(
            e, DESK, DESK.tau, rng=rng, mode="randomized", budget=200
        )
        assert report.recovered is not None
        assert matches_target(report.recovered, DESK, e, DESK.tau)
        assert report.solves_performed > 0
        assert report.iterations >= 1


def test_direct_attack_rrns():
    params = RrnsParams(
        primes=(97, 101, 103, 107, 109, 113, 127, 131), M=10**6, k=1
    )
    rng = random.Random(6)
    x = rng.randrange(params.M)
    e = encode(x, params, rng)
    report = direct_attack(
        e, params, params.tau, rng=rng, mode="randomized", budget=100
    )
    assert report.recovered is not None
    assert matches_target(report.recovered, params, e, params.tau)


def test_direct_attack_budget_exhaustion():
    rng = random.Random(7)
    e = tuple(sorted(rng.randrange(DESK.p) for _ in range(DESK.n)))
    report = direct_attack(e, DESK, 0, rng=rng, mode="randomized", budget=3)
    if report.recovered is None:
        assert report.iterations == 3
        assert report.solves_performed > 0


def test_direct_attack_mode_validation():
    with pytest.raises(ValueError):
        direct_attack((0,) * 10, DESK, 4, mode="bogus")
    with pytest.raises(ValueError):
        direct_attack((0,) * 10, DESK, 4, mode="randomized")  # no rng/budget
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget of at least 1"):
            direct_attack((0,) * 10, DESK, 4, rng=random.Random(0), mode="randomized", budget=budget)


def test_expected_direct_solves():
    # k = 0 reduces to the falling factorial
    assert math.isclose(
        10 ** expected_direct_solves_log10(10, 3, 0), math.perm(10, 3), rel_tol=1e-9
    )
    assert math.isclose(
        expected_direct_solves(DESK),
        math.perm(10, 3) * math.exp(2 * 3 / 10),
        rel_tol=1e-9,
    )
    # full-scale orders of magnitude
    assert round(expected_direct_solves_log10(100, 8, 10)) == 16
    assert round(expected_direct_solves_log10(80, 7, 8)) == 14 or round(
        expected_direct_solves_log10(80, 7, 8)
    ) == 13


def test_attack_report_counters_exact():
    # with k=0 and tau=0, exhaustive mode counts one solve per candidate tried
    params = PolyCodeParams(M=961, p=31, n=4, k=0)
    rng = random.Random(8)
    x = rng.randrange(params.M)
    e = encode(x, params, rng)
    report = direct_attack(e, params, tau=0, mode="exhaustive")
    # the recovered point reproduces e exactly; it may be the reflection
    # twin of x rather than x itself
    assert report.recovered is not None
    assert matches_target(report.recovered, params, e, 0)
    assert report.solves_performed >= 1
    assert report.encodings_performed <= report.solves_performed
