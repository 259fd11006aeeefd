import math
import random
from fractions import Fraction

import pytest

from tracecloak.analysis import (
    Lemma1Result,
    ParamRow,
    enumerate_match_prob,
    fp_bound,
    fp_bound_log10,
    lemma1_check,
    mc_match_prob,
    rrns_reference_primes,
    table1_report,
)
from tracecloak.encoder import PolyCodeParams


def test_fp_bound_known_values():
    # full-scale setting: bound around 1e-71
    assert abs(fp_bound_log10(503, 100, 20) - (-71)) <= 1
    # single uniform coordinate
    assert math.isclose(fp_bound(11, 1, 0), 1 / 11, rel_tol=1e-12)
    # second reference row: D^2 * s around 1e-10 for D = 1e14
    assert abs(28 + fp_bound_log10(101, 100, 2) - (-10)) <= 1


def test_fp_bound_validation():
    with pytest.raises(ValueError):
        fp_bound_log10(7, 10, 2)  # n > p
    with pytest.raises(ValueError):
        fp_bound_log10(11, 5, 6)  # tau > n
    with pytest.raises(ValueError, match="^need p > 0, got p = 0$"):
        fp_bound_log10(0, 0, 0)  # passes the range check; log(p) would fail with "math domain error"


def test_fp_bound_monotonicity():
    for n in (5, 10, 20):
        for p in (31, 101, 503):
            values = [fp_bound_log10(p, n, tau) for tau in range(n + 1)]
            assert values == sorted(values)  # non-decreasing in tau
    for tau in (0, 2, 4):
        values = [fp_bound_log10(p, 10, tau) for p in (11, 31, 101, 503)]
        assert values == sorted(values, reverse=True)  # non-increasing in p


def test_enumerate_match_prob_exact_tiny_case():
    exact = enumerate_match_prob(3, 2, 0, (0, 1))
    assert exact == Fraction(2, 9)
    # the bound is tight here: 2!/3^2
    assert math.isclose(fp_bound(3, 2, 0), 2 / 9, rel_tol=1e-12)


def test_enumerate_tau_n_is_one():
    assert enumerate_match_prob(3, 2, 2, (0, 1)) == 1


def test_mc_estimate_below_bound():
    rng = random.Random(0)
    e = tuple(sorted(rng.randrange(11) for _ in range(5)))
    est = mc_match_prob(11, 5, 2, e, trials=100_000, seed=1)
    assert est.ci[1] <= fp_bound(11, 5, 2)
    assert 0 < est.estimate < 1


def test_mc_tau_n_is_one():
    est = mc_match_prob(7, 4, 4, (0, 1, 2, 3), trials=1000, seed=2)
    assert est.estimate == 1.0


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_match_prob(7, 4, 2, (0, 1, 2, 3), trials=0)
    with pytest.raises(ValueError):
        mc_match_prob(7, 4, 2, (0, 1), trials=10)


def test_mc_matches_exact_enumeration():
    # small case where the exact probability is enumerable
    exact = float(enumerate_match_prob(5, 3, 1, (0, 2, 4)))
    est = mc_match_prob(5, 3, 1, (0, 2, 4), trials=200_000, seed=3)
    lo, hi = est.ci
    assert lo <= exact <= hi


def test_lemma1_separation():
    params = PolyCodeParams(M=17**3, p=17, n=12, k=2)
    res = lemma1_check(params, trials=2000, rng=random.Random(4))
    assert isinstance(res, Lemma1Result)
    assert res.ok
    assert res.false_negatives == 0
    assert res.false_positives == 0


def test_lemma1_k0_same_x_is_exact():
    params = PolyCodeParams(M=17**3, p=17, n=15, k=0)
    assert (params.n - params.m) // 4 == 3  # wrong k is rejected
    with pytest.raises(ValueError):
        lemma1_check(params, trials=10, rng=random.Random(5))
    exact = PolyCodeParams(M=17**3, p=17, n=3, k=0)
    res = lemma1_check(exact, trials=200, rng=random.Random(6))
    assert res.false_negatives == 0
    # a one-point world has no distinct pair; drawing one never ended
    with pytest.raises(ValueError, match="at least 2 points, got M=1"):
        lemma1_check(PolyCodeParams(M=1, p=2, n=1, k=0), trials=1, rng=random.Random(7))


def test_table1_rows():
    rows = table1_report()
    assert [r.method for r in rows] == [
        "polynomial",
        "polynomial",
        "polynomial",
        "residues",
    ]
    first, second, third, rrns = rows
    assert (first.m, first.tau, first.bits) == (8, 20, 898)
    assert (second.m, second.tau, second.bits) == (10, 2, 666)
    assert (third.m, third.tau, third.bits) == (9, 40, 1545)
    assert abs(first.log10_expected_fp - (-43)) <= 1
    assert abs(first.log10_attack_solves - 16) <= 1
    assert abs(second.log10_expected_fp - (-10)) <= 1
    assert abs(second.log10_attack_solves - 20) <= 1
    assert abs(third.log10_expected_fp - (-5)) <= 1
    assert abs(third.log10_attack_solves - 21) <= 1
    assert rrns.m == 7 and rrns.tau == 16
    assert abs(rrns.log10_expected_fp - (-58)) <= 1
    assert abs(rrns.log10_attack_solves - 13) <= 1
    assert rrns.note  # recomputed bit size flagged
    assert rrns.bits == 813


def test_table1_degenerate_bits():
    row = ParamRow(
        method="polynomial",
        n=1,
        p=2,
        m=1,
        k=0,
        tau=0,
        bits=math.ceil(1 * math.log2(2)),
        log10_expected_fp=0.0,
        log10_attack_solves=0.0,
    )
    assert row.bits == 1


def test_rrns_reference_primes():
    ps = rrns_reference_primes()
    assert len(ps) == 80
    assert ps[0] == 877
    assert ps[-1] == 1451
    geo = math.exp(sum(math.log(q) for q in ps) / len(ps))
    assert round(geo) in (1142, 1143)
