"""Modular-arithmetic and big-integer primitives.

Everything here works on plain Python ints, so world points far beyond
64 bits (the inflated world needs ~130 bits) are handled transparently.
The one exception is `is_prime`, a trial division meant for the small
alphabets and moduli of the encoders (below 2^16).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


class SingularSystemError(ValueError):
    """Raised when an interpolation system has repeated evaluation points."""


def is_prime(n: int) -> bool:
    """Trial division by every d in [2, isqrt(n)].

    Meant for the alphabets and moduli of the encoders, which lie below
    CODE_LIMIT = 2^16, and for the primes up to 2,621 that the inflation
    map uses: up to sqrt(n) divisions, so not for large n.
    """
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes(count: int, start: int = 2) -> list[int]:
    """The `count` consecutive primes >= start, ascending."""
    if count < 0:
        raise ValueError("count must be non-negative")
    out: list[int] = []
    n = max(2, start)
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def to_digits(x: int, p: int, m: int) -> list[int]:
    """Base-p digits of x, p >= 2, least-significant first, zero-padded to
    length m.  x outside [0, p^m) raises ValueError: x < 0, or a quotient
    left after m divisions by p, so p^m itself is never computed."""
    if x < 0:
        raise ValueError(f"x={x} out of range [0, {p}^{m})")
    digits = []
    rest = x
    for _ in range(m):
        digits.append(rest % p)
        rest //= p
    if rest:
        raise ValueError(f"x={x} out of range [0, {p}^{m})")
    return digits


def from_digits(digits: Sequence[int], p: int) -> int:
    x = 0
    for d in reversed(digits):
        x = x * p + d
    return x


def eval_poly(digits: Sequence[int], xi: int, p: int) -> int:
    """Evaluate the polynomial with coefficients `digits` at xi over Z_p (Horner)."""
    acc = 0
    for d in reversed(digits):
        acc = (acc * xi + d) % p
    return acc


def vandermonde_solve(
    points: Sequence[tuple[int, int]], m: int, p: int
) -> list[int]:
    """Coefficients of the unique degree-(m-1) polynomial through `points` over Z_p.

    `points` is a sequence of m (evaluation index, value) pairs.  Uses
    Newton's divided differences, expanded from the innermost factor by
    Horner's rule, in O(m^2); raises SingularSystemError on repeated indices.
    """
    if len(points) != m:
        raise ValueError(f"expected {m} points, got {len(points)}")
    xs = [xi % p for xi, _ in points]
    if len(set(xs)) != m:
        raise SingularSystemError("repeated evaluation indices")
    c = [yi for _, yi in points]
    for j in range(1, m):
        for i in range(m - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * pow(xs[i] - xs[i - j], -1, p) % p
    # coeffs <- coeffs * (X - x_i) + c[i]; at step i the degree is m-1-i
    coeffs = [0] * m
    for i in range(m - 1, -1, -1):
        xi = xs[i]
        for t in range(m - 1 - i, 0, -1):
            coeffs[t] = (coeffs[t - 1] - xi * coeffs[t]) % p
        coeffs[0] = (c[i] - xi * coeffs[0]) % p
    return coeffs


def crt_reconstruct(residues: Iterable[tuple[int, int]]) -> int:
    """The unique x in [0, prod moduli) with x = v_i (mod p_i).

    `residues` is an iterable of (value, modulus) pairs with pairwise
    coprime moduli.
    """
    x = 0
    mod = 1
    for v, p in residues:
        t = (v - x) * pow(mod, -1, p) % p
        x += mod * t
        mod *= p
    return x
