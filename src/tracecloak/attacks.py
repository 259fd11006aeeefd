"""Executable adversaries against the encoding, plus the analytic cost model.

Both attacks look for the world points whose deterministic sorted basic code
lies within tau of a target encoding.  The dictionary attack enumerates the
points: it encodes every candidate once, indexes the codes and answers every
target from that index, at a cost linear in the number of points.  Every
client knows the encoder (and the inflation map), and a world of epochs x
cells is small, so enumeration is the attack that scales: it recovers every
stored encoding of a whole simulation in seconds.  The direct attack inverts
one encoding without the world; `expected_direct_solves` gives its cost.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass

from .encoder import Params, RrnsParams, sorted_code, sorted_codes
from .matcher import ID_LIMIT, MatchIndex, DatabaseEntry, hamming
from .numtheory import crt_reconstruct, from_digits, vandermonde_solve

BATCH = 10_000  # points the dictionary attack encodes at a time


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


def dictionary_attack(targets, points: Sequence[int], params: Params, tau: int) -> list[AttackReport]:
    """Encode every point of `points` and report, for each target in order,
    every point whose sorted basic code lies within tau of it.

    The points are encoded `BATCH` at a time by `sorted_codes`, which draws
    nothing, and each code is added to one `MatchIndex` with the point's
    position as its id.  An encoding of a point lies within k of its
    sorted code, so at tau = 2k every target's own point is among its
    candidates.  `candidates` holds the matching points in ascending order,
    `recovered` the first of them; every report counts len(points)
    encodings and the time of the whole pass.  No point is inflated here:
    for an inflated world, pass `inflate_points(world)` and `deflate` the
    candidates.  More points than one index holds raise ValueError before
    any is encoded.
    """
    if points[ID_LIMIT:]:  # a slice, not len(): a range of 2^63 or more has none
        raise ValueError(f"more than {ID_LIMIT} points: a dictionary holds at most that many")
    start = time.perf_counter()
    index = MatchIndex(params.n, tau)
    for lo in range(0, len(points), BATCH):
        codes = sorted_codes(points[lo : lo + BATCH], params)
        for i, code in enumerate(codes, lo):
            index.add(DatabaseEntry(user_id=str(i), encoding=code))
    hits = [sorted(points[int(entry.user_id)] for entry in index.query(e, tau)) for e in targets]
    wall_time = time.perf_counter() - start
    return [
        AttackReport(
            recovered=found[0] if found else None,
            encodings_performed=len(points),
            wall_time=wall_time,
            candidates=tuple(found),
        )
        for found in hits
    ]


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
