"""Non-invertible encodings of world points.

Two variants share the same release pipeline (evaluate/reduce, sort,
order-preserving corruption): the polynomial code over Z_p and the
redundant residue code over n distinct primes.  Both are injective before
sorting and keep re-encodings of one point within Hamming distance 2k of
each other, which is what makes threshold matching work.

The deterministic stage (evaluate/reduce) is one batch function,
`_basic_codes`, of a sequence of points.  The polynomial code splits each
point into a few limbs of k base-p digits with `divmod`, takes every limb
apart with one broadcast floor division by p^0..p^(k-1) (each quotient is
congruent to its digit mod p), and multiplies the quotient rows by a
cached table of i^l mod p in int64, then reduces mod p; k is chosen so
that the unreduced product stays below 2^63.  The residue code takes each
point's residues.  `sorted_codes` sorts every row at once; the simulator
calls it once an epoch.  `sorted_code` (for `encode` and the attacks) and
`basic_encode` (positions intact) are batches of one.  Every point must
be an int (`operator.index`): a float is a TypeError, as in `inflate`, not
floored.
`numtheory.to_digits` and `numtheory.eval_poly` (Horner's rule) are the
scalar reference it is tested against.

Corruption has two forms too.  `corrupt` of one sorted code (and so
`encode`) replays CPython's `sample` and `randrange` draw for draw, and is
the reference.  `corrupt_rows`, the epoch kernel the simulator calls once
an epoch on `_sorted_rows` (the array `sorted_codes` turns into lists),
corrupts every row of a batch in k vectorised steps with `corrupt`'s
distribution but its own documented stream of exact-uniform 32-bit draws
(`_below_rows`).

World inflation has the same two forms: `inflate` of one point, the
reference, and `inflate_points`, the batch the protocol path calls.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import index
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

# eval_poly and to_digits are not called here; they are imported so that the
# scalar references stay reachable (and wrappable) as encoder.eval_poly and
# encoder.to_digits
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


# Every coordinate an encoding can carry lies in [0, CODE_LIMIT): the index
# stores rows of uint16 and the wire codec writes each coordinate as one, so
# the parameters refuse a wider alphabet.
CODE_LIMIT = 1 << 16


@dataclass(frozen=True)
class PolyCodeParams:
    """Parameters (M, p, n, k) of the polynomial-code variant."""

    M: int
    p: int
    n: int
    k: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError(f"need a world of M >= 1 points, got M={self.M}")
        if self.p > CODE_LIMIT:
            raise ValueError(f"p={self.p} above the alphabet limit {CODE_LIMIT}")
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

    @cached_property
    def limbs(self) -> _Limbs:
        """How `_basic_codes` splits a point (`_limbs`), built at first use
        and kept: an attribute read is cheaper than a cache keyed on the
        params, whose hash is computed on every call."""
        return _limbs(self)


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
        if self.M < 1:
            raise ValueError(f"need a world of M >= 1 points, got M={self.M}")
        object.__setattr__(self, "primes", tuple(self.primes))
        ps = self.primes
        if len(ps) < 1:
            raise ValueError("need at least one modulus")
        if any(ps[i] >= ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("moduli must be strictly increasing")
        if ps[-1] > CODE_LIMIT:
            raise ValueError(f"modulus {ps[-1]} above the alphabet limit {CODE_LIMIT}")
        for q in ps:
            if not is_prime(q):
                raise ValueError(f"modulus {q} is not prime")
        if not (0 <= self.k <= self.n):
            raise ValueError("need 0 <= k <= n")
        top = math.prod(ps[self.n - self.m + 1 :])  # largest m-1 moduli
        if self.m > 1 and not top < self.M:  # one residue needs no such bound
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


class _Limbs(NamedTuple):
    """How `_basic_codes` splits a point of a polynomial code: `chunks`
    limbs in base `base` = p^k, the divisors p^0..p^(k-1) that take a limb
    apart, the table V[l, i] = i^l mod p of the chunks*k digit positions l,
    and p as an int64 scalar (numpy converts a Python int operand on every
    call)."""

    base: int
    chunks: int
    divisors: np.ndarray
    table: np.ndarray
    p: np.int64


def _limbs(params: PolyCodeParams) -> _Limbs:
    """The fewest limbs whose unreduced product stays below 2^63, each k =
    ceil(m / chunks) digits wide.

    Digit l = c*k + j of x is congruent mod p to the quotient Q = L_c // p^j
    of its limb L_c < p^k, and Q < p^(k-j).  Against a table entry below p,
    the k quotients of one limb sum to less than (p-1)(p + ... + p^k) <
    p^(k+1), so a dot product stays below chunks * p^(k+1), which is chosen
    below 2^63 and keeps int64 exact.  One digit a limb (k = 1) always
    qualifies: m <= n <= p <= CODE_LIMIT keeps m * p^2 below 2^48.  The
    top limb's positions past m hold 0, since x < M <= p^m.  The params
    keep the arrays (`PolyCodeParams.limbs`) and share them, so they are
    read-only."""
    p, m = params.p, params.m
    chunks = 1
    while chunks * p ** (-(-m // chunks) + 1) >= 2**63:
        chunks += 1
    k = -(-m // chunks)
    divisors = np.array([p**j for j in range(k)], dtype=np.int64)
    table = np.array(  # column-major: a column is one coordinate's dot product
        [[pow(i, l, p) for i in range(params.n)] for l in range(chunks * k)],
        dtype=np.int64,
        order="F",
    )
    divisors.flags.writeable = table.flags.writeable = False
    return _Limbs(p**k, chunks, divisors, table, np.int64(p))


def _digit_quotients(xs: Sequence[int], limbs: _Limbs) -> np.ndarray:
    """Row per point of its chunks*k limb quotients, each congruent mod p to
    the point's base-p digit at that position (see `_limbs`).  The points
    must lie in [0, p^(chunks*k))."""
    base, splits = limbs.base, range(limbs.chunks - 1)
    flat: list[int] = []
    append = flat.append
    for x in xs:
        for _ in splits:
            x, low = divmod(x, base)
            append(low)
        append(x)
    return np.floor_divide.outer(flat, limbs.divisors).reshape(len(xs), -1)


def _basic_codes(xs: Sequence[int], params: Params) -> np.ndarray:
    """The unsorted basic codes of the points xs, one row of n int64
    coordinates each (shape (len(xs), n)).

    Polynomial code: each point's digit polynomial evaluated at 0..n-1, the
    rows of limb quotients (`_digit_quotients`) times the cached table of
    i^l mod p, mod p.  RRNS: the residue vectors (x mod p_1, ..., x mod
    p_n).  Any x that is not an int raises TypeError, and any x outside
    [0, M) ValueError, before a row is computed.
    """
    M, xs = params.M, list(map(index, xs))
    for x in xs:
        if not 0 <= x < M:
            raise ValueError(f"x={x} outside world [0, {M})")
    if not xs:
        return np.empty((0, params.n), dtype=np.int64)
    if isinstance(params, RrnsParams):
        ps = params.primes
        return np.array([[x % q for q in ps] for x in xs], dtype=np.int64)
    limbs = params.limbs
    codes = _digit_quotients(xs, limbs) @ limbs.table
    codes %= limbs.p
    return codes


def _sorted_rows(xs: Sequence[int], params: Params) -> np.ndarray:
    """`_basic_codes` of xs with every row sorted: what `sorted_codes`
    returns, as the int64 array that `corrupt_rows` takes."""
    codes = _basic_codes(xs, params)
    codes.sort()
    return codes


def sorted_codes(xs: Sequence[int], params: Params) -> list[list[int]]:
    """The sorted basic code of each point of xs, in order: the
    deterministic part of `encode`, before corruption, for a batch.  A
    point that is not an int raises TypeError, and one outside [0, M)
    ValueError."""
    return _sorted_rows(xs, params).tolist()


def sorted_code(x: int, params: Params) -> list[int]:
    """The sorted basic code of one point: `sorted_codes` of a batch of one."""
    return sorted_codes((x,), params)[0]


def basic_encode(x: int, params: Params) -> list[int]:
    """The index-carrying code of one point, positions intact."""
    return _basic_codes((x,), params)[0].tolist()


def sort_code(code: Sequence[int]) -> tuple[int, ...]:
    """Drop the position/index association by sorting non-decreasingly."""
    return tuple(sorted(code))


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A uniform int in [0, n), n >= 1, drawn as CPython's
    `Random._randbelow` draws it: n.bit_length() bits until they are below n."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def _sample(getrandbits: Callable[[int], int], n: int, k: int) -> list[int]:
    """k distinct ints of range(n), in selection order, drawn as CPython's
    `Random.sample(range(n), k)` draws them.  Its size rule picks the path:
    a pool of all n ints while that list is smaller than a set of k, else
    redraws until k distinct ones are seen.  Refuses k outside [0, n] with
    ValueError before any draw."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot choose k={k} of {n} coordinates")
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool = list(range(n))
        chosen = []
        for left in range(n, n - k, -1):
            j = _below(getrandbits, left)
            chosen.append(pool[j])
            pool[j] = pool[left - 1]
        return chosen
    seen: dict[int, None] = {}  # keeps the first draw of each int, in order
    while len(seen) < k:
        seen[_below(getrandbits, n)] = None
    return list(seen)


def corrupt(
    e: Sequence[int], k: int, alphabet: int, rng: random.Random
) -> tuple[int, ...]:
    """Resample k distinct coordinates of a sorted vector, preserving order.

    The selected coordinates are redrawn in increasing position.  Position
    i is redrawn uniformly from the window [out_{i-1}, e_{i+1}], excluding
    its current value: out_{i-1} is its left neighbour after that
    neighbour's own redraw, if it had one, and the sentinels are 0 and
    alphabet-1.  A saturated window (one value) leaves the coordinate
    unchanged.  k outside [0, len(e)] raises ValueError before any draw.

    The draws are exactly those of `rng.sample(range(len(e)), k)` followed
    by one `rng.randrange(lo, hi)` per unsaturated position, taken straight
    from `rng.getrandbits`: for any generator whose getrandbits is
    `random.Random`'s, the output and the generator's state afterwards are
    those of that code.  Coordinates are Python ints.
    """
    n = len(e)
    getrandbits = rng.getrandbits
    out = list(e)
    for i in sorted(_sample(getrandbits, n, k)):
        lo = out[i - 1] if i > 0 else 0
        hi = out[i + 1] if i + 1 < n else alphabet - 1
        if hi > lo:
            v = lo + _below(getrandbits, hi - lo)
            if v >= out[i]:
                v += 1
            out[i] = v
    return tuple(out)


def _below_rows(getrandbits: Callable[[int], int], s: np.ndarray) -> np.ndarray:
    """A uniform int in [0, s_i) for each s_i of s, 1 <= s_i < 2^32, drawn
    in rounds.  A round draws one 32-bit word for each row still pending,
    in row order, as one `getrandbits(32 * m)` whose first word is its low
    bits; a row keeps the top s_i.bit_length() bits of its word when they
    are below s_i, as `_below` does, and is pending again otherwise.  A
    row with s_i = 1 takes 0 and no word."""
    r = np.zeros(len(s), np.int64)
    todo = np.flatnonzero(s > 1)
    s = s[todo]
    shift = (32 - np.frexp(s)[1]).astype(np.uint32)  # 32 - s.bit_length()
    while m := len(todo):
        words = np.frombuffer(getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
        drawn = words >> shift
        r[todo] = drawn  # a rejected row's word is drawn again and replaced
        again = np.flatnonzero(drawn >= s)
        todo, s, shift = todo[again], s[again], shift[again]
    return r


def corrupt_rows(
    codes: np.ndarray, k: int, alphabet: int, rng: random.Random
) -> np.ndarray:
    """`corrupt` of every row of an int64 (B, n) array of sorted rows in
    [0, alphabet), in k vectorised steps of each kind: a new (B, n) array.

    Each row's output has `corrupt`'s distribution, but the draws are the
    kernel's own, every one a 32-bit word of `rng.getrandbits` taken by
    `_below_rows`.  Positions: for j = 0..k-1 every row draws r in
    [0, n-j), takes pool[r] of its pool 0..n-1, and moves pool[n-1-j] into
    its place (a partial Fisher-Yates shuffle).  Values: for each row's
    chosen positions in increasing order, every row whose window [lo, hi]
    (`corrupt`'s, with its sentinels 0 and alphabet-1) holds more than one
    value draws r in [0, hi-lo) and takes lo + r, plus one when that
    reaches its current value.  k outside [0, n], or an alphabet above
    2^32, raises ValueError before any draw."""
    B, n = codes.shape
    if not 0 <= k <= n:
        raise ValueError(f"cannot choose k={k} of {n} coordinates")
    if alphabet > 1 << 32:
        raise ValueError(f"alphabet {alphabet}: a draw takes one 32-bit word")
    getrandbits, rows = rng.getrandbits, np.arange(B)
    pool = np.tile(np.arange(n, dtype=np.min_scalar_type(n)), (B, 1))
    chosen = np.empty((B, k), np.int64)
    for j in range(k):
        r = _below_rows(getrandbits, np.full(B, n - j, np.int64))
        chosen[:, j] = pool[rows, r]
        pool[rows, r] = pool[:, n - 1 - j]
    chosen.sort(axis=1)
    # column i + 1 holds coordinate i, between the sentinels 0 and alphabet-1
    out = np.empty((B, n + 2), np.int64)
    out[:, 0], out[:, 1:-1], out[:, -1] = 0, codes, alphabet - 1
    for i in chosen.T:
        lo, here, hi = out[rows, i], out[rows, i + 1], out[rows, i + 2]
        wide = np.flatnonzero(hi > lo)
        v = lo[wide] + _below_rows(getrandbits, (hi - lo)[wide])
        v += v >= here[wide]
        out[wide, i[wide] + 1] = v
    return out[:, 1:-1]


def encode(x: int, params: Params, rng: random.Random) -> tuple[int, ...]:
    """The released encoding: sorted basic code with k coordinates corrupted."""
    return corrupt(sorted_code(x, params), params.k, params.alphabet, rng)


def encode_unsorted(x: int, params: Params, rng: random.Random) -> tuple[int, ...]:
    """Corrupted basic code with positions intact (no sorting step).

    k distinct coordinates are replaced by uniform values in [0, p); easy
    to analyze but also easy to invert, so only useful as a baseline.
    Polynomial parameters only: any other Params raise ValueError.  The
    draws are those of `rng.sample(range(n), k)` followed by one
    `rng.randrange(p)` per chosen position, as in `corrupt`.
    """
    if not isinstance(params, PolyCodeParams):
        raise ValueError("unsorted mode needs polynomial parameters")
    code = basic_encode(x, params)
    getrandbits = rng.getrandbits
    for i in _sample(getrandbits, params.n, params.k):
        code[i] = _below(getrandbits, params.p)
    return tuple(code)


# ---------------------------------------------------------------------------
# World inflation: an injective, non-polynomial map into a ~10^39 world
# that raises the digit count m and with it the direct-attack cost.

INFLATION_FACTORS = 16


@lru_cache(maxsize=1)
def _inflation_bands() -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(q_i, band_i) for i = 1..16: q_i is the i-th prime, and band_i the
    q_i consecutive primes after those of the bands before it, so the bands
    are disjoint and together are the first 381 primes."""
    base = primes(INFLATION_FACTORS)  # q_1..q_16
    pool = primes(sum(base))
    bands, s = [], 0
    for q in base:
        bands.append((q, tuple(pool[s : s + q])))
        s += q
    return tuple(bands)


@lru_cache(maxsize=1)
def inflation_domain() -> int:
    """Size of the admissible input range: the product of the first 16 primes."""
    return math.prod(q for q, _ in _inflation_bands())


def inflate(x: int) -> int:
    """Map x to a square-free integer with exactly 16 prime factors.

    Each residue x mod q_i selects one prime from a band of q_i primes;
    the bands are disjoint, so the factor multiset determines all 16
    residues and the map is injective.
    """
    if not 0 <= x < inflation_domain():
        raise ValueError("x outside the inflation domain")
    y = 1
    for q, band in _inflation_bands():
        y *= band[x % q]  # the (x mod q + 1)-th prime of the band
    return y


@lru_cache(maxsize=1)
def _inflation_arrays() -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, moduli, offsets, pool) for `inflate_points`: A and B multiply
    the first and the last 8 band primes q, so each stays below 2^63;
    moduli holds the 16 q as a column, and pool the 16 bands back to back,
    band i from offsets[i] (a column too).  The arrays are shared, so they
    are read-only."""
    bands = _inflation_bands()
    qs = [q for q, _ in bands]
    moduli = np.array(qs, dtype=np.int64)[:, None]
    offsets = np.cumsum([0] + qs[:-1], dtype=np.int64)[:, None]
    pool = np.array([f for _, band in bands for f in band], dtype=np.int64)
    for a in (moduli, offsets, pool):
        a.flags.writeable = False
    return math.prod(qs[:8]), math.prod(qs[8:]), moduli, offsets, pool


def inflate_points(xs: Sequence[int]) -> list[int]:
    """`[inflate(x) for x in xs]` in one numpy pass.  Any x that is not an
    int raises TypeError, and any x outside [0, inflation_domain())
    inflate's ValueError, before anything is computed.

    x mod A and x mod B, taken as Python ints since x may pass 2^63, give
    the 16 residues x mod q in int64, a row per band.  Each picks its
    band's prime, band[x mod q]; the 16 primes, each below 2^12, multiply
    in int64 in 4 groups of 4 (below 2^48), and the 4 group products as
    Python ints.
    """
    domain, xs = inflation_domain(), list(map(index, xs))
    for x in xs:
        if not 0 <= x < domain:
            raise ValueError("x outside the inflation domain")
    A, B, moduli, offsets, pool = _inflation_arrays()
    halves = np.array([[x % A for x in xs], [x % B for x in xs]], dtype=np.int64)
    picked = pool[halves.repeat(8, axis=0) % moduli + offsets]  # (16, len(xs))
    groups = picked.reshape(4, 4, -1).prod(axis=1).tolist()
    return [a * b * c * d for a, b, c, d in zip(*groups)]


def _band_factors(y: int) -> list[tuple[int, int, int]]:
    """(c_i, q_i, factor) for each band of an inflated value: the first
    candidate prime of band i that divides y is its (c_i + 1)-th."""
    out = []
    for q, band in _inflation_bands():
        for c, f in enumerate(band):
            if y % f == 0:
                out.append((c, q, f))
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
    return math.prod(band[-1] for _, band in _inflation_bands()) + 1


def inflated_digit_count(p: int) -> int:
    """Digit count m' needed to encode inflated values in base p."""
    return digit_count(inflate_range_bound(), p)


# ---------------------------------------------------------------------------
# Plain-text parameter files and encoding serialization.
#
# An encoding is kept and sent as its row of big-endian uint16: two bytes a
# coordinate, so (0, 2, 211) packs to b"\x00\x00\x00\x02\x00\xd3".  The
# wire and the entry files carry the row in hex, four lowercase hex digits a
# coordinate ("0000000200d3"); a client keeps the bytes themselves.  One
# struct call packs or unpacks the whole row, and a coordinate outside
# [0, CODE_LIMIT) cannot be written.  The codec keeps one `struct.Struct`,
# the format of the last row length it saw, in a one-element list, and a row
# of another length replaces it: the state is one slot, whatever lengths the
# rows it reads have.

_row_struct = [struct.Struct(">1H")]  # the slot


def pack_encoding(coords: Sequence[int]) -> bytes:
    """coords as big-endian uint16.  Raises ValueError for no coordinates,
    or for one that is not an int in [0, CODE_LIMIT) (a bool, being an int,
    packs as 0 or 1)."""
    codec, k = _row_struct[0], len(coords)  # one read: another thread may replace it
    try:
        if codec.size != 2 * k:
            if not k:
                raise ValueError("an encoding has at least one coordinate")
            codec = _row_struct[0] = struct.Struct(f">{k}H")
        return codec.pack(*coords)
    except struct.error as exc:
        raise ValueError(f"cannot write {coords!r} as uint16: {exc}") from None


def unpack_encoding(row: bytes) -> tuple[int, ...]:
    """The coordinates of a non-empty row of big-endian uint16; a row of no
    bytes or of an odd number of them raises ValueError."""
    if not row or len(row) & 1:
        raise ValueError(f"not 2 bytes per coordinate: {len(row)} bytes")
    codec = _row_struct[0]  # one read: another thread may replace it
    if codec.size != len(row):
        codec = _row_struct[0] = struct.Struct(f">{len(row) >> 1}H")
    return codec.unpack(row)


def format_encoding(coords: Sequence[int]) -> str:
    """The hex of `pack_encoding(coords)`; raises ValueError where it does."""
    return pack_encoding(coords).hex()


def parse_encoding(text: str) -> tuple[int, ...]:
    """The coordinates of 4*k hex digits, k >= 1, as big-endian uint16; upper
    case digits are read too.  Anything else, whitespace included, raises
    ValueError."""
    try:
        raw = bytes.fromhex(text)  # skips whitespace: the length tests see it
    except ValueError:  # a character that is not a hex digit or whitespace
        raw = b""
    codec = _row_struct[0]  # one read: another thread may replace it
    if len(text) == 2 * len(raw) == 2 * codec.size:  # the last row length seen
        return codec.unpack(raw)
    if 2 * len(raw) != len(text):
        raise ValueError(f"not 4 hex digits per coordinate: {text!r}")
    return unpack_encoding(raw)  # refuses no digits, or 2 mod 4 of them


def save_params(params: Params, path: str | Path) -> None:
    lines = [f"M={params.M}", f"k={params.k}"]
    if isinstance(params, RrnsParams):
        lines.append("primes=" + ",".join(str(q) for q in params.primes))
    else:
        lines.append(f"p={params.p}")
        lines.append(f"n={params.n}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_params(path: str | Path) -> Params:
    """Read a key=value parameter file; a `primes` key selects the RRNS variant.

    Each key is one of M, k, p, n and primes, and appears at most once; p
    and n do not go with primes.  Anything else raises ValueError.
    """
    fields: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        if not _:
            raise ValueError(f"malformed parameter line: {raw!r}")
        key = key.strip()
        if key not in ("M", "k", "p", "n", "primes"):
            raise ValueError(f"unknown parameter {key!r}")
        if key in fields:
            raise ValueError(f"repeated parameter {key!r}")
        fields[key] = value.strip()
    try:
        M = int(fields["M"])
        k = int(fields["k"])
        if "primes" in fields:
            for key in ("p", "n"):
                if key in fields:
                    raise ValueError(f"parameter {key!r} does not go with 'primes'")
            ps = tuple(int(tok) for tok in fields["primes"].split(","))
            return RrnsParams(primes=ps, M=M, k=k)
        return PolyCodeParams(M=M, p=int(fields["p"]), n=int(fields["n"]), k=k)
    except KeyError as exc:
        raise ValueError(f"missing parameter {exc}") from None
