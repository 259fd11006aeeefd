"""Executable adversaries against the encoding, plus the analytic cost model.

All three attacks try to recover a world point whose deterministic sorted
basic code lies within tau of the target encoding.  They are only runnable
at desk scale; at production parameters the solve/encoding counters and
`expected_direct_solves` quantify why they are hopeless.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass

from .encoder import Params, RrnsParams, encode, sorted_code
from .matcher import MatchIndex, DatabaseEntry, hamming
from .numtheory import crt_reconstruct, from_digits, vandermonde_solve


@dataclass
class AttackReport:
    recovered: int | None
    solves_performed: int = 0
    encodings_performed: int = 0
    iterations: int = 0
    wall_time: float = 0.0
    candidates: tuple[int, ...] = ()


def matches_target(x: int, params: Params, e, tau: int) -> bool:
    """Does the deterministic sorted basic code of x match e within tau?"""
    return hamming(sorted_code(x, params), e) <= tau


def brute_force_attack(e, params: Params, tau: int) -> AttackReport:
    """Scan the whole world; return the first point matching within tau."""
    start = time.perf_counter()
    x = next((x for x in range(params.M) if matches_target(x, params, e, tau)), None)
    return AttackReport(
        recovered=x,
        encodings_performed=params.M if x is None else x + 1,
        wall_time=time.perf_counter() - start,
    )


def table_attack_build(params: Params, rng: random.Random) -> MatchIndex:
    """Precompute one encoding per world point, indexed for range queries."""
    index = MatchIndex(params.n, params.tau)
    for x in range(params.M):
        index.add(DatabaseEntry(user_id=str(x), encoding=encode(x, params, rng)))
    return index


def table_attack_query(table: MatchIndex, e, tau: int) -> AttackReport:
    start = time.perf_counter()
    hits = tuple(int(entry.user_id) for entry in table.query(e, tau))
    return AttackReport(
        recovered=hits[0] if hits else None,
        candidates=hits,
        wall_time=time.perf_counter() - start,
    )


def projected_table_bytes(params: Params) -> float:
    """Storage for the full-scale table in the cost model: M entries of n
    coordinates at ceil(log2 alphabet) bits, one copy per block table.
    `MatchIndex` holds less: each coordinate once, as 2 bytes of its row,
    plus per block a 4-byte chain word and at most 4 table slots of 8 bytes
    (a table keeps 2 to 4 slots per entry)."""
    bits_per_coord = math.ceil(math.log2(params.alphabet))
    return params.M * params.n * bits_per_coord / 8 * (params.tau + 1)


def _solve_candidate(values, indices, params: Params) -> int | None:
    """Map m (index, value) pairs back to a world point; None if out of range."""
    if isinstance(params, RrnsParams):
        if any(v >= params.primes[i] for v, i in zip(values, indices)):
            return None  # value cannot be a residue of that modulus
        x = crt_reconstruct(
            [(v, params.primes[i]) for v, i in zip(values, indices)]
        )
    else:
        coeffs = vandermonde_solve(list(zip(indices, values)), params.m, params.p)
        x = from_digits(coeffs, params.p)
    return x if x < params.M else None


def direct_attack(
    e,
    params: Params,
    tau: int,
    rng: random.Random | None = None,
    mode: str = "exhaustive",
    budget: int | None = None,
) -> AttackReport:
    """Guess which m coordinates of e are uncorrupted and where they came from.

    Each inner candidate assigns the m chosen coordinate values to m
    distinct evaluation indices (moduli for the residue variant), inverts
    the subsystem, and verifies the re-encoding.  `exhaustive` enumerates
    subsets lexicographically; `randomized` samples a fresh subset per
    outer iteration up to `budget` iterations, matching the expected-cost
    analysis in `expected_direct_solves`.
    """
    n, m = params.n, params.m
    e = tuple(e)
    if len(e) != n:
        raise ValueError(f"target has {len(e)} coordinates, the code has n={n}")
    start = time.perf_counter()
    solves = 0
    encodings = 0
    iterations = 0

    if mode == "exhaustive":
        subset_iter = itertools.combinations(range(n), m)
    elif mode == "randomized":
        if rng is None:
            raise ValueError("randomized mode needs an rng")
        if budget is None or budget < 1:
            raise ValueError(f"randomized mode needs an iteration budget of at least 1, got {budget}")
        subset_iter = (
            tuple(sorted(rng.sample(range(n), m))) for _ in range(budget)
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")

    recovered = None
    for subset in subset_iter:
        iterations += 1
        values = [e[j] for j in subset]
        for indices in itertools.permutations(range(n), m):
            solves += 1
            x = _solve_candidate(values, indices, params)
            if x is None:
                continue
            encodings += 1
            if matches_target(x, params, e, tau):
                recovered = x
                break
        if recovered is not None:
            break
    return AttackReport(
        recovered=recovered,
        solves_performed=solves,
        encodings_performed=encodings,
        iterations=iterations,
        wall_time=time.perf_counter() - start,
    )


def expected_direct_solves_log10(n: int, m: int, k: int) -> float:
    """log10 of n!/(n-m)! * exp(km/n), computed in log space."""
    if not (0 <= m <= n) or k < 0:
        raise ValueError("need 0 <= m <= n and k >= 0")
    ln = math.lgamma(n + 1) - math.lgamma(n - m + 1) + k * m / n
    return ln / math.log(10)


def expected_direct_solves(params: Params) -> float:
    """Expected solve count of the direct attack at the given parameters."""
    return 10 ** expected_direct_solves_log10(params.n, params.m, params.k)
