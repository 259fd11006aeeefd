"""Non-invertible encodings of world points.

Two variants share the same release pipeline (evaluate/reduce, sort,
order-preserving corruption): the polynomial code over Z_p and the
redundant residue code over n distinct primes.  Both are injective before
sorting and keep re-encodings of one point within Hamming distance 2k of
each other, which is what makes threshold matching work.

The deterministic stage (evaluate/reduce, sort) is one numpy function,
`sorted_codes`: the polynomial code is a product of the digit matrix with
a cached Vandermonde table.  `numtheory.eval_poly` (Horner's rule) is the
scalar reference it is tested against.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

# eval_poly is not called here; it is imported so that the scalar reference
# stays reachable (and wrappable) as encoder.eval_poly
from .numtheory import crt_reconstruct, eval_poly, is_prime, primes, to_digits  # noqa: F401


def digit_count(M: int, p: int) -> int:
    """Smallest m with p^m >= M (exact integer arithmetic, no float log)."""
    m = 0
    bound = 1
    while bound < M:
        bound *= p
        m += 1
    return max(m, 1)


def residue_digit_count(M: int, moduli: Sequence[int]) -> int:
    """Smallest m whose first m moduli multiply to at least M."""
    prod = 1
    for i, q in enumerate(moduli):
        prod *= q
        if prod >= M:
            return i + 1
    raise ValueError("product of all moduli below M")


@dataclass(frozen=True)
class PolyCodeParams:
    """Parameters (M, p, n, k) of the polynomial-code variant."""

    M: int
    p: int
    n: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p={self.p} is not prime")
        if not (0 <= self.k <= self.n <= self.p):
            raise ValueError("need 0 <= k <= n <= p")
        if self.n < self.m:
            raise ValueError(f"code length n={self.n} below digit count m={self.m}")

    @property
    def m(self) -> int:
        return digit_count(self.M, self.p)

    @property
    def tau(self) -> int:
        return 2 * self.k

    @property
    def alphabet(self) -> int:
        return self.p


@dataclass(frozen=True)
class RrnsParams:
    """Parameters of the redundant-residue variant.

    m is derived as the smallest prefix of the prime list whose product
    reaches M; the product of any m-1 moduli must stay below M so that m
    residues always pin down the world point.
    """

    primes: tuple[int, ...]
    M: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(self.primes))
        ps = self.primes
        if len(ps) < 1:
            raise ValueError("need at least one modulus")
        if any(ps[i] >= ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("moduli must be strictly increasing")
        for q in ps:
            if not is_prime(q):
                raise ValueError(f"modulus {q} is not prime")
        if not (0 <= self.k <= self.n):
            raise ValueError("need 0 <= k <= n")
        m = self.m
        if m > self.n:
            raise ValueError("world too large for the given moduli")
        top = math.prod(ps[self.n - m + 1 :])  # largest m-1 moduli
        if not top < self.M:
            raise ValueError("product of the largest m-1 moduli must be < M")

    @property
    def n(self) -> int:
        return len(self.primes)

    @property
    def m(self) -> int:
        return residue_digit_count(self.M, self.primes)

    @property
    def tau(self) -> int:
        return 2 * self.k

    @property
    def alphabet(self) -> int:
        return self.primes[-1]


Params = PolyCodeParams | RrnsParams


def _int_dtype(largest: int):
    """int64 when every value stays below 2^63, Python ints (object) otherwise."""
    return np.int64 if largest < 2**63 else object


@lru_cache(maxsize=64)
def _vandermonde(params: PolyCodeParams) -> np.ndarray:
    """V[j, i] = i^j mod p, so that digits @ V evaluates the digit polynomial
    at 0..n-1.  A dot product sums m products below p^2, so int64 is exact
    while m*(p-1)^2 < 2^63 (every p < 2^16); larger p falls back to Python
    ints.  The table is shared, so it is read-only."""
    p, m = params.p, params.m
    table = np.array(
        [[pow(i, j, p) for i in range(params.n)] for j in range(m)],
        dtype=_int_dtype(m * (p - 1) ** 2),
    )
    table.flags.writeable = False
    return table


def _basic_codes(xs: Sequence[int], params: Params) -> np.ndarray:
    """The unsorted basic codes of xs, one row per point, shape (len(xs), n).

    Polynomial code: the digit polynomial of x evaluated at 0..n-1.  RRNS:
    the residue vector (x mod p_1, ..., x mod p_n).  Every point is
    range-checked before any work is done.
    """
    for x in xs:
        if not 0 <= x < params.M:
            raise ValueError(f"x={x} outside world [0, {params.M})")
    if isinstance(params, RrnsParams):
        rows = [[x % q for q in params.primes] for x in xs]
        dtype = _int_dtype(params.alphabet - 1)
        return np.array(rows, dtype=dtype).reshape(len(xs), params.n)
    table = _vandermonde(params)
    m = table.shape[0]
    digits = np.array([to_digits(x, params.p, m) for x in xs], dtype=table.dtype)
    codes = digits.reshape(len(xs), m) @ table
    codes %= params.p
    return codes


def sorted_codes(xs: Sequence[int], params: Params) -> np.ndarray:
    """Sorted basic codes of xs, shape (len(xs), n): the deterministic part
    of `encode`, before corruption."""
    codes = _basic_codes(xs, params)
    codes.sort(axis=1)
    return codes


def basic_encode(x: int, params: Params) -> list[int]:
    """The index-carrying code of one point, positions intact."""
    return _basic_codes([x], params)[0].tolist()


def sort_code(code: Sequence[int]) -> tuple[int, ...]:
    """Drop the position/index association by sorting non-decreasingly."""
    return tuple(sorted(code))


def corrupt(
    e: Sequence[int], k: int, alphabet: int, rng: random.Random
) -> tuple[int, ...]:
    """Resample k distinct coordinates of a sorted vector, preserving order.

    Each selected coordinate i is redrawn uniformly from the window
    [e_{i-1}, e_{i+1}] (sentinels 0 and alphabet-1), excluding its current
    value whenever the window contains another one.  A saturated window
    leaves the coordinate unchanged.
    """
    n = len(e)
    if k > n:
        raise ValueError("k exceeds vector length")
    out = list(e)
    for i in sorted(rng.sample(range(n), k)):
        lo = out[i - 1] if i > 0 else 0
        hi = out[i + 1] if i + 1 < n else alphabet - 1
        cur = out[i]
        if hi > lo:
            v = rng.randrange(lo, hi)
            if v >= cur:
                v += 1
            out[i] = v
    return tuple(out)


def encode(x: int, params: Params, rng: random.Random) -> tuple[int, ...]:
    """The released encoding: sorted basic code with k coordinates corrupted."""
    (row,) = sorted_codes([x], params).tolist()
    return corrupt(tuple(row), params.k, params.alphabet, rng)


def encode_unsorted(
    x: int, params: PolyCodeParams, rng: random.Random
) -> tuple[int, ...]:
    """Corrupted basic code with positions intact (no sorting step).

    k distinct coordinates are replaced by uniform values in [0, p); easy
    to analyze but also easy to invert, so only useful as a baseline.
    """
    code = basic_encode(x, params)
    for i in rng.sample(range(params.n), params.k):
        code[i] = rng.randrange(params.p)
    return tuple(code)


# ---------------------------------------------------------------------------
# World inflation: an injective, non-polynomial map into a ~10^39 world
# that raises the digit count m and with it the direct-attack cost.

INFLATION_FACTORS = 16


@lru_cache(maxsize=1)
def _inflation_tables() -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    base = tuple(primes(INFLATION_FACTORS))  # q_1..q_16
    offsets = []
    s = 0
    for q in base:
        offsets.append(s)  # s_i = sum of the primes before q_i
        s += q
    pool = tuple(primes(offsets[-1] + base[-1]))  # q_1..q_381 covers every band
    return base, tuple(offsets), pool


def inflation_domain() -> int:
    """Size of the admissible input range: the product of the first 16 primes."""
    base, _, _ = _inflation_tables()
    return math.prod(base)


def inflate(x: int) -> int:
    """Map x to a square-free integer with exactly 16 prime factors.

    Each residue x mod q_i selects one prime from a band of q_i primes;
    the bands are disjoint, so the factor multiset determines all 16
    residues and the map is injective.
    """
    base, offsets, pool = _inflation_tables()
    if not 0 <= x < inflation_domain():
        raise ValueError("x outside the inflation domain")
    y = 1
    for q, s in zip(base, offsets):
        y *= pool[s + x % q]  # the (s_i + c_i + 1)-th prime, 1-indexed
    return y


def _band_factors(y: int) -> list[tuple[int, int, int]]:
    """(c_i, q_i, factor) for each band of an inflated value: the first
    candidate prime of band i that divides y is its (c_i + 1)-th."""
    base, offsets, pool = _inflation_tables()
    out = []
    for q, s in zip(base, offsets):
        for c in range(q):
            if y % pool[s + c] == 0:
                out.append((c, q, pool[s + c]))
                break
        else:
            raise ValueError("value is not in the image of inflate")
    return out


def deflate(y: int) -> int:
    """Invert `inflate` by factoring over the known per-band candidate primes."""
    bands = _band_factors(y)
    if math.prod(f for _, _, f in bands) != y:
        raise ValueError("value is not in the image of inflate")
    return crt_reconstruct([(c, q) for c, q, _ in bands])


def inflation_factors(y: int) -> list[int]:
    """The 16 prime factors of an inflated value, one per band."""
    return [f for _, _, f in _band_factors(y)]


def inflate_range_bound() -> int:
    """Exclusive upper bound on inflated values (every band at its top prime)."""
    base, offsets, pool = _inflation_tables()
    return math.prod(pool[s + q - 1] for q, s in zip(base, offsets)) + 1


def inflated_digit_count(p: int) -> int:
    """Digit count m' needed to encode inflated values in base p."""
    return digit_count(inflate_range_bound(), p)


# ---------------------------------------------------------------------------
# Plain-text parameter files and encoding serialization.
#
# Every report and alert crosses the wire as a comma-separated coordinate
# line, so the codec looks coordinates up in one shared intern table instead
# of calling str() and int() on each: _STR[i] == str(i) and _INT[str(i)] == i
# for 0 <= i < len(_STR).  The table grows on demand to the next power of two
# above the largest coordinate seen, never past CODE_LIMIT, and only under
# _GROW_LOCK: two threads extending one list at once would shift its indices.
# Readers need no lock, because an entry never changes once it is there.
# One table serves the whole process: its content depends on its length
# alone, so no caller can see another caller's use of it.

CODE_LIMIT = 1 << 16  # coordinates the codec interns and the index stores
_STR: list[str] = []
_INT: dict[str, int] = {}
_GROW_LOCK = threading.Lock()


def _grow(top: int) -> bool:
    """Make the intern table cover [0, top]; False when top is out of reach."""
    if not 0 <= top < CODE_LIMIT:
        return False
    with _GROW_LOCK:
        start, stop = len(_STR), min(1 << top.bit_length(), CODE_LIMIT)
        if stop > start:
            new = [str(i) for i in range(start, stop)]
            _INT.update(zip(new, range(start, stop)))
            _STR.extend(new)
    return True


def format_encoding(coords: Sequence[int]) -> str:
    """`",".join(str(c) for c in coords)`, with the strings of coordinates
    in [0, CODE_LIMIT) taken from the intern table.  The coordinates are
    ints: a bool, being one, formats as 0 or 1."""
    try:
        if min(coords) >= 0:
            return ",".join(map(_STR.__getitem__, coords))
    except IndexError:  # beyond the table: grow it, unless beyond CODE_LIMIT
        if _grow(max(coords)):
            return ",".join(map(_STR.__getitem__, coords))
    except (TypeError, ValueError):  # no coordinates, or not ints
        pass
    return ",".join(str(c) for c in coords)


def parse_encoding(text: str) -> tuple[int, ...]:
    """`tuple(int(tok) for tok in text.strip().split(","))`: a line of
    canonical tokens in [0, CODE_LIMIT) is looked up in the intern table,
    anything else goes through int(), so the codec accepts and rejects
    exactly what int() does (whitespace, signs, `_`, other decimal digits)."""
    try:
        return tuple(map(_INT.__getitem__, text.split(",")))
    except KeyError:
        coords = tuple(int(tok) for tok in text.strip().split(","))
    _grow(max(coords))
    return coords


def save_params(params: Params, path: str | Path) -> None:
    lines = [f"M={params.M}", f"k={params.k}"]
    if isinstance(params, RrnsParams):
        lines.append("primes=" + ",".join(str(q) for q in params.primes))
    else:
        lines.append(f"p={params.p}")
        lines.append(f"n={params.n}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_params(path: str | Path) -> Params:
    """Read a key=value parameter file; a `primes` key selects the RRNS variant."""
    fields: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if not _:
            raise ValueError(f"malformed parameter line: {raw!r}")
        fields[key.strip()] = value.strip()
    try:
        M = int(fields["M"])
        k = int(fields["k"])
        if "primes" in fields:
            ps = tuple(int(tok) for tok in fields["primes"].split(","))
            return RrnsParams(primes=ps, M=M, k=k)
        return PolyCodeParams(M=M, p=int(fields["p"]), n=int(fields["n"]), k=k)
    except KeyError as exc:
        raise ValueError(f"missing parameter {exc}") from None
