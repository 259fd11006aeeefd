import math
import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from tracecloak import attacks
from tracecloak.attacks import (
    AttackReport,
    dictionary_attack,
    direct_attack,
    expected_direct_solves,
    expected_direct_solves_log10,
    matches_target,
    projected_table_bytes,
)
from tracecloak.attacks import _solve_candidate
from tracecloak.encoder import (
    PolyCodeParams,
    RrnsParams,
    deflate,
    digit_count,
    encode,
    inflate_points,
    inflate_range_bound,
)
from tracecloak.tracing import GridSpec, pack, run_simulation

DESK = PolyCodeParams(M=10**4, p=31, n=10, k=2)


def test_brute_force_recovers():
    """A dictionary pass over the whole world finds the point of an
    encoding among its candidates, each of which matches."""
    rng = random.Random(0)
    x = rng.randrange(DESK.M)
    e = encode(x, DESK, rng)
    (report,) = dictionary_attack([e], range(DESK.M), DESK, DESK.tau)
    assert x in report.candidates
    assert report.recovered == report.candidates[0]
    assert all(matches_target(c, DESK, e, DESK.tau) for c in report.candidates)
    assert report.encodings_performed == DESK.M


def test_brute_force_exact_at_k0():
    params = PolyCodeParams(M=10**4, p=31, n=10, k=0)
    rng = random.Random(1)
    x = rng.randrange(params.M)
    e = encode(x, params, rng)
    (report,) = dictionary_attack([e], range(params.M), params, 0)
    assert report.recovered == x
    assert report.encodings_performed == params.M


def test_brute_force_none_for_random_vector():
    # a generic non-decreasing vector is matched by (almost) no world point;
    # at stringent tau=0 the scan comes back empty
    params = PolyCodeParams(M=10**3, p=101, n=12, k=0)
    rng = random.Random(2)
    targets = [tuple(sorted(rng.randrange(params.p) for _ in range(params.n))) for _ in range(20)]
    reports = dictionary_attack(targets, range(params.M), params, 0)
    assert len(reports) == 20
    for report in reports:
        assert report.recovered is None and report.candidates == ()
        assert report.encodings_performed == params.M


def test_table_attack():
    """The dictionary is indexed by position, so any sequence of points
    will do, and one pass answers every target."""
    params = PolyCodeParams(M=2000, p=31, n=10, k=2)
    rng = random.Random(3)
    points = rng.sample(range(params.M), 500)
    xs = points[:20]
    reports = dictionary_attack([encode(x, params, rng) for x in xs], points, params, params.tau)
    for x, report in zip(xs, reports, strict=True):
        assert x in report.candidates
        assert list(report.candidates) == sorted(report.candidates)
        assert set(report.candidates) <= set(points)
        assert report.encodings_performed == len(points)


@st.composite
def _tiny_params(draw):
    """Small polynomial or residue parameters."""
    k = draw(st.integers(0, 2))
    if draw(st.booleans()):
        p = draw(st.sampled_from([5, 7, 11, 13]))
        M = draw(st.integers(1, p**3))
        n = draw(st.integers(max(digit_count(M, p), k), p))
        return PolyCodeParams(M=M, p=p, n=n, k=k)
    primes = draw(st.lists(st.sampled_from([7, 11, 13, 17, 19, 23]), min_size=2, max_size=5, unique=True))
    M = draw(st.integers(1, 7 * 11 * 13))
    try:
        return RrnsParams(primes=sorted(primes), M=M, k=min(k, len(primes)))
    except ValueError:  # the largest m-1 moduli reach M
        reject()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dictionary_attack_equals_the_scan(data):
    """Every target's candidates are exactly the points of a `matches_target`
    scan, for encodings of points inside and outside the range and for
    random sorted vectors."""
    params = data.draw(_tiny_params())
    lo = data.draw(st.integers(0, params.M - 1))
    points = range(lo, data.draw(st.integers(lo, min(params.M, lo + 200))))
    tau = data.draw(st.integers(0, params.n))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    inside = [encode(x, params, rng) for x in rng.choices(points, k=3)] if points else []
    outside = [encode(x, params, rng) for x in rng.choices(range(params.M), k=3) if x not in points]
    noise = [tuple(sorted(rng.randrange(params.alphabet) for _ in range(params.n))) for _ in range(3)]
    targets = inside + outside + noise
    reports = dictionary_attack(targets, points, params, tau)
    assert len(reports) == len(targets)
    for t, report in zip(targets, reports):
        expected = [x for x in points if matches_target(x, params, t, tau)]
        assert list(report.candidates) == expected
        assert report.recovered == (expected[0] if expected else None)
        assert report.encodings_performed == len(points)


def test_dictionary_attack_recovers_every_stored_point(monkeypatch):
    """With no infection, the server's store of an inflated simulation
    gives away every report: over the inflated world, each stored encoding
    matches exactly one point, its reporter's true (epoch, cell)."""
    monkeypatch.setattr(attacks, "BATCH", 97)  # many batches, the last one short
    grid = GridSpec(rows=10, cols=10, epochs=20)
    agents = 20
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)
    result = run_simulation(agents, grid, params, seed=31, infections=[], inflate_world=True)
    stored = result.server.index.entries
    assert len(stored) == agents * grid.epochs
    world = inflate_points(range(grid.world_size))
    reports = dictionary_attack([e.encoding for e in stored], world, params, params.tau)
    for j, (entry, report) in enumerate(zip(stored, reports, strict=True)):
        t, user = divmod(j, agents)
        assert entry.user_id == f"u{user}"
        cell = result.trajectories[entry.user_id][t]
        assert [deflate(y) for y in report.candidates] == [pack(t, cell, grid)]


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


def test_direct_attack_rrns_skips_a_value_above_its_modulus():
    """A value at or above the modulus it is assigned to is no residue of
    it: that pair is counted as a solve but never re-encoded."""
    params = RrnsParams(
        primes=(97, 101, 103, 107, 109, 113, 127, 131), M=10**6, k=0
    )
    assert _solve_candidate([120, 5, 6], [0, 1, 2], params) is None
    rng = random.Random(0)
    x = rng.randrange(params.M)
    e = encode(x, params, rng)
    assert max(e) >= params.primes[0]
    report = direct_attack(e, params, 0, mode="exhaustive")
    assert report.recovered == x
    assert report.solves_performed > report.encodings_performed


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
    with pytest.raises(ValueError, match="target has 3 coordinates, the code has n=10"):
        direct_attack((0,) * 3, DESK, 4, mode="exhaustive")


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
    for n, m, k in ((3, 4, 0), (10, -1, 0), (10, 3, -1)):
        with pytest.raises(ValueError, match="0 <= m <= n"):
            expected_direct_solves_log10(n, m, k)


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
