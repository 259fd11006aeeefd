"""Statistical validation of the matching guarantees and the parameter table.

All bound and complexity arithmetic runs in log10 space (log-gamma for
factorials) because the interesting values span roughly 10^-71 to 10^21.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from statistics import NormalDist
from typing import Sequence

import numpy as np

from . import kernels
from .attacks import expected_direct_solves_log10
from .encoder import PolyCodeParams, encode_unsorted, residue_digit_count
from .matcher import hamming
from .numtheory import primes

LOG10_E = math.log10(math.e)


def fp_bound_log10(p: float, n: int, tau: int) -> float:
    """log10 of the accidental-match bound (n!/p^n) * sum_{d<=tau} (2p)^d/d!."""
    if not p > 0:  # its logarithm is taken
        raise ValueError(f"need p > 0, got p = {p}")
    if not (0 <= tau <= n <= p):
        raise ValueError("need 0 <= tau <= n <= p")
    base = (math.lgamma(n + 1) - n * math.log(p)) * LOG10_E
    terms = [
        (d * math.log(2 * p) - math.lgamma(d + 1)) * LOG10_E for d in range(tau + 1)
    ]
    peak = max(terms)
    total = peak + math.log10(sum(10 ** (t - peak) for t in terms))
    return base + total


def fp_bound(p: float, n: int, tau: int) -> float:
    """The bound itself; underflows to 0.0 below ~1e-308, use the log10 form."""
    return 10 ** fp_bound_log10(p, n, tau)


MC_CHUNK = 1 << 16  # rows drawn and counted per batch
MC_CONFIDENCE = 0.99  # level of McEstimate.ci


@dataclass(frozen=True)
class McEstimate:
    matches: int
    trials: int

    @property
    def estimate(self) -> float:
        return self.matches / self.trials

    @property
    def ci(self) -> tuple[float, float]:
        """Wilson score interval at the MC_CONFIDENCE level."""
        z = NormalDist().inv_cdf(0.5 + MC_CONFIDENCE / 2)
        n = self.trials
        phat = self.estimate
        denom = 1 + z * z / n
        center = (phat + z * z / (2 * n)) / denom
        half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
        return (max(0.0, center - half), min(1.0, center + half))


def mc_match_prob(
    p: int,
    n: int,
    tau: int,
    e: Sequence[int],
    trials: int,
    seed: int = 0,
) -> McEstimate:
    """Monte Carlo estimate of Prob{sorted random vector within tau of e}."""
    if not (0 <= tau <= n <= p):
        raise ValueError("need 0 <= tau <= n <= p")
    if trials < 1:
        raise ValueError("need at least one trial")
    if len(e) != n:
        raise ValueError("e must have length n")
    rng = np.random.default_rng(seed)
    target = np.asarray(e, dtype=np.int64)
    matches = 0
    remaining = trials
    while remaining > 0:
        rows = min(MC_CHUNK, remaining)
        z = rng.integers(0, p, size=(rows, n), dtype=np.int64)
        matches += kernels.count_sorted_within(z, target, tau)
        remaining -= rows
    return McEstimate(matches=matches, trials=trials)


def enumerate_match_prob(p: int, n: int, tau: int, e: Sequence[int]) -> Fraction:
    """Exact probability by enumerating all p^n vectors; tiny cases only."""
    e = tuple(e)
    hits = 0
    for z in itertools.product(range(p), repeat=n):
        if hamming(tuple(sorted(z)), e) <= tau:
            hits += 1
    return Fraction(hits, p**n)


@dataclass
class Lemma1Result:
    same_x_trials: int
    distinct_x_trials: int
    false_negatives: int  # same-x pairs beyond tau
    false_positives: int  # distinct-x pairs within tau

    @property
    def ok(self) -> bool:
        return self.false_negatives == 0 and self.false_positives == 0


def lemma1_check(
    params: PolyCodeParams, trials: int, rng: random.Random
) -> Lemma1Result:
    """Separation of the unsorted corrupted code at k = floor((n-m)/4), tau = 2k.

    Counts same-x re-encoding pairs at distance > tau and distinct-x pairs
    at distance <= tau; both counts must be zero.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if params.M < 2:  # no distinct pair to draw: the draw loop would never end
        raise ValueError(f"distinct-x pairs need a world of at least 2 points, got M={params.M}")
    expected_k = (params.n - params.m) // 4
    if params.k != expected_k:
        raise ValueError(
            f"separation requires k = floor((n-m)/4) = {expected_k}, got {params.k}"
        )
    tau = params.tau
    wrong = {True: 0, False: 0}  # same x: pairs beyond tau; distinct: within
    for same in (True, False):
        for _ in range(trials):
            x = y = rng.randrange(params.M)
            while not same and y == x:
                y = rng.randrange(params.M)
            a = encode_unsorted(x, params, rng)
            b = encode_unsorted(y, params, rng)
            wrong[same] += (hamming(a, b) > tau) == same
    return Lemma1Result(
        same_x_trials=trials,
        distinct_x_trials=trials,
        false_negatives=wrong[True],
        false_positives=wrong[False],
    )


# ---------------------------------------------------------------------------
# The reference parameter table for a 10^19-point world.


@dataclass(frozen=True)
class ParamRow:
    method: str
    n: int
    p: float  # geometric-mean modulus for the residue row
    m: int
    k: int
    tau: int
    bits: int  # ceil(n log2 p), recomputed
    log10_expected_fp: float  # D^2 * s(p, n, tau)
    log10_attack_solves: float
    note: str = ""


def rrns_reference_primes() -> list[int]:
    """The residue-row moduli: the first 80 primes >= 877 (ends at 1451)."""
    return primes(80, 877)


# (p, n, k) of the three polynomial reference rows
REFERENCE_POLY_ROWS = ((503, 100, 10), (101, 100, 1), (211, 200, 20))


def table1_report(M: int = 10**19, D: int = 10**14) -> list[ParamRow]:
    """Recompute every derived column of the four reference parameter rows."""
    rows = []
    for p, n, k in REFERENCE_POLY_ROWS:
        params = PolyCodeParams(M=M, p=p, n=n, k=k)
        rows.append(_make_row("polynomial", n, p, params.m, k, M, D))

    moduli = rrns_reference_primes()
    n = len(moduli)
    k = 8
    geo_mean = math.exp(sum(math.log(q) for q in moduli) / n)
    m = residue_digit_count(M, moduli)
    exact_bits = math.ceil(sum(math.log2(q) for q in moduli))
    rows.append(
        replace(
            _make_row("residues", n, geo_mean, m, k, M, D),
            p=round(geo_mean),
            bits=exact_bits,
            note=(
                f"bit size recomputed as ceil(sum log2 p_i) = {exact_bits}; "
                "reference tables quote 858 for these moduli"
            ),
        )
    )
    return rows


def _make_row(method: str, n: int, p: float, m: int, k: int, M: int, D: int) -> ParamRow:
    tau = 2 * k
    bits = math.ceil(n * math.log2(p))
    log10_fp = 2 * math.log10(D) + fp_bound_log10(p, n, tau)
    return ParamRow(
        method=method,
        n=n,
        p=p,
        m=m,
        k=k,
        tau=tau,
        bits=bits,
        log10_expected_fp=log10_fp,
        log10_attack_solves=expected_direct_solves_log10(n, m, k),
    )
