import hashlib
import itertools
import math
import random
import struct
import sys
import threading
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracecloak import encoder
from tracecloak.encoder import (
    CODE_LIMIT,
    PolyCodeParams,
    RrnsParams,
    basic_encode,
    corrupt,
    deflate,
    digit_count,
    residue_digit_count,
    encode,
    encode_unsorted,
    format_encoding,
    inflate,
    inflate_points,
    inflate_range_bound,
    inflated_digit_count,
    inflation_domain,
    inflation_factors,
    load_params,
    pack_encoding,
    parse_encoding,
    save_params,
    sort_code,
    sorted_code,
    sorted_codes,
    unpack_encoding,
)
from tracecloak.analysis import REFERENCE_POLY_ROWS, rrns_reference_primes
from tracecloak.matcher import hamming
from tracecloak.numtheory import eval_poly, primes, to_digits

SMALL = PolyCodeParams(M=49, p=7, n=5, k=0)
DESK = PolyCodeParams(M=10**4, p=31, n=10, k=2)


def test_digit_counts():
    assert SMALL.m == 2
    assert DESK.m == 3
    assert PolyCodeParams(M=10**19, p=503, n=100, k=10).m == 8
    assert digit_count(1, 7) == 1


def test_param_validation():
    with pytest.raises(ValueError):
        PolyCodeParams(M=49, p=6, n=5, k=0)  # composite modulus
    with pytest.raises(ValueError):
        PolyCodeParams(M=49, p=7, n=8, k=0)  # n > p
    with pytest.raises(ValueError):
        PolyCodeParams(M=10**6, p=7, n=5, k=0)  # n < m
    with pytest.raises(ValueError):
        PolyCodeParams(M=49, p=7, n=5, k=6)  # k > n


def test_basic_encode_example():
    assert basic_encode(17, SMALL) == [3, 5, 0, 2, 4]
    assert basic_encode(0, SMALL) == [0, 0, 0, 0, 0]
    assert hamming(basic_encode(17, SMALL), basic_encode(0, SMALL)) == 4


def test_basic_encode_out_of_range():
    with pytest.raises(ValueError):
        basic_encode(49, SMALL)


def test_basic_encode_injective_and_min_distance_exhaustive():
    codes = [tuple(basic_encode(x, SMALL)) for x in range(SMALL.M)]
    assert len(set(codes)) == SMALL.M
    d = min(
        hamming(a, b) for a, b in itertools.combinations(codes, 2)
    )
    assert d == SMALL.n - SMALL.m + 1


def test_basic_min_distance_larger_world():
    # p=17, n=12, m=3: pairwise distance of all 17^3 basic codes is n-m+1
    params = PolyCodeParams(M=17**3, p=17, n=12, k=0)
    codes = np.array([basic_encode(x, params) for x in range(params.M)], dtype=np.int16)
    best = params.n
    for i in range(0, params.M, 256):
        chunk = codes[i : i + 256]
        dists = (chunk[:, None, :] != codes[None, :, :]).sum(axis=2)
        np.fill_diagonal(dists[:, i : i + 256], params.n)
        best = min(best, int(dists.min()))
    assert best == params.n - params.m + 1


_PRIMES = (2, 7, 31, 101, 211, 503, 65521)


@st.composite
def _poly_cases(draw):
    """Random (params, points); one case in four is the inflated world."""
    if draw(st.integers(0, 3)) == 0:
        params = PolyCodeParams(M=inflate_range_bound(), p=503, n=draw(st.integers(15, 24)), k=2)
    else:
        p = draw(st.sampled_from(_PRIMES))
        M = draw(st.integers(1, 10**40))
        m = digit_count(M, p)
        if m > min(p, 30):
            M, m = p, 1
        n = draw(st.integers(m, min(p, 30)))
        params = PolyCodeParams(M=M, p=p, n=n, k=draw(st.integers(0, n)))
    xs = draw(st.lists(st.integers(0, params.M - 1), max_size=6))
    return params, xs


def _horner(x, params):
    digits = to_digits(x, params.p, params.m)
    return [eval_poly(digits, i, params.p) for i in range(params.n)]


def _scalar_basic_code(x, params):
    if isinstance(params, RrnsParams):
        return [x % q for q in params.primes]
    return _horner(x, params)


def _scalar_sorted_code(x, params):
    return sorted(_scalar_basic_code(x, params))


@settings(max_examples=200, deadline=None)
@given(_poly_cases())
def test_sorted_codes_equal_horner_reference(case):
    params, xs = case
    for x in xs:
        assert sorted_code(x, params) == sorted(_horner(x, params))
        assert basic_encode(x, params) == _horner(x, params)


def _check_limb_bound(params):
    """The split of `_limbs`: the fewest limbs of k = ceil(m / chunks)
    digits whose unreduced dot product, below chunks * p^(k+1), fits int64."""
    p, m, limbs = params.p, params.m, params.limbs
    chunks, k = limbs.chunks, len(limbs.divisors)
    assert k == -(-m // chunks) and limbs.base == p**k
    assert limbs.divisors.tolist() == [p**j for j in range(k)]
    assert limbs.table.dtype == limbs.divisors.dtype == np.int64
    assert limbs.table.shape == (chunks * k, params.n)
    assert limbs.table.tolist() == [[pow(i, l, p) for i in range(params.n)] for l in range(chunks * k)]
    assert chunks * p ** (k + 1) < 2**63
    fewer = chunks - 1
    assert fewer == 0 or fewer * p ** (-(-m // fewer) + 1) >= 2**63


def test_table_dtype_bound():
    """65521 is the largest prime below CODE_LIMIT; 65537 the smallest above,
    as a polynomial alphabet or as an RRNS modulus.  At 65521 and m = n =
    200, 100 limbs of 2 digits keep a dot product below 100 * 65521^3."""
    params = PolyCodeParams(M=65521**200, p=65521, n=200, k=0)
    _check_limb_bound(params)
    assert (params.limbs.chunks, len(params.limbs.divisors)) == (100, 2)
    with pytest.raises(ValueError, match="alphabet limit"):
        PolyCodeParams(M=10**30, p=65537, n=10, k=0)
    with pytest.raises(ValueError, match="alphabet limit"):
        RrnsParams(primes=(65521, 65537), M=2**20, k=0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_PRIMES), st.data())
def test_limbs_are_the_fewest_within_int64(p, data):
    """The split, and exact codes at x = p^m - 1, where every digit and so
    every limb quotient is as large as it gets."""
    m = data.draw(st.integers(1, min(p, 60)))
    params = PolyCodeParams(M=p**m, p=p, n=m, k=0)
    _check_limb_bound(params)
    xs = [p**m - 1, data.draw(st.integers(0, p**m - 1))]
    assert sorted_codes(xs, params) == [sorted(_horner(x, params)) for x in xs]


def _edge_points(M):
    """0, M - 1, and points at and above 2^63 where the world reaches them."""
    points = [0, M - 1]
    if M > 2**63:
        points += [2**63, random.Random(M).randrange(2**63, M)]
    return points


@pytest.mark.parametrize(
    "params",
    [
        PolyCodeParams(M=65521**200, p=65521, n=200, k=0),  # m = n: the most digits
        PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2),  # the sim shape
        *(PolyCodeParams(M=10**19, p=p, n=n, k=k) for p, n, k in REFERENCE_POLY_ROWS),
        RrnsParams(primes=tuple(rrns_reference_primes()), M=10**19, k=8),
    ],
    ids=lambda params: f"p={params.alphabet},n={params.n},m={params.m}",
)
def test_sorted_codes_equal_the_reference_at_the_edges(params):
    """The limb split is exact at the largest digits, the top of the world
    and past 2^63, at p = 65521 with m = n and at every reference row."""
    xs = _edge_points(params.M)
    assert sorted_codes(xs, params) == [_scalar_sorted_code(x, params) for x in xs]
    assert [basic_encode(x, params) for x in xs] == [_scalar_basic_code(x, params) for x in xs]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(
        [
            RrnsParams(primes=(3, 5, 7), M=100, k=1),
            RrnsParams(primes=(97, 101, 103, 107, 109, 113, 127, 131), M=10**6, k=2),
        ]
    ),
    st.data(),
)
def test_rrns_sorted_codes_equal_residues(params, data):
    xs = data.draw(st.lists(st.integers(0, params.M - 1), max_size=6))
    for x in xs:
        assert sorted_code(x, params) == sorted(x % q for q in params.primes)
        assert basic_encode(x, params) == [x % q for q in params.primes]


_RRNS = (
    RrnsParams(primes=(3, 5, 7), M=100, k=1),
    RrnsParams(primes=(97, 101, 103, 107, 109, 113, 127, 131), M=10**6, k=2),
)


@st.composite
def _batches(draw):
    """(params, points): a batch of 0, 1 or up to 40 points, with the edge
    points 0 and M-1 drawn as often as any other, at polynomial or RRNS
    parameters."""
    if draw(st.booleans()):
        params = draw(_poly_cases())[0]
    else:
        params = draw(st.sampled_from(_RRNS))
    point = st.sampled_from([0, params.M - 1]) | st.integers(0, params.M - 1)
    size = draw(st.sampled_from([0, 1]) | st.integers(2, 40))
    return params, draw(st.lists(point, min_size=size, max_size=size))


@settings(max_examples=200, deadline=None)
@given(_batches())
def test_sorted_codes_rows_equal_the_scalar_reference(case):
    """Each row of a batch is the point's Horner evaluation over its digits,
    sorted (x mod q for RRNS), whatever else is in the batch."""
    params, xs = case
    rows = sorted_codes(xs, params)
    assert rows == [_scalar_sorted_code(x, params) for x in xs]
    assert all(type(c) is int for row in rows for c in row)
    assert rows == [sorted_code(x, params) for x in xs]


@settings(max_examples=100, deadline=None)
@given(_batches(), st.sampled_from(["low", "high"]), st.data())
def test_sorted_codes_refuse_a_batch_with_a_point_outside_the_world(case, side, data):
    params, xs = case
    off = data.draw(st.integers(0, 10))
    bad = -1 - off if side == "low" else params.M + off
    at = data.draw(st.integers(0, len(xs)))
    batch = xs[:at] + [bad] + xs[at:]
    message = f"x={bad} outside world [0, {params.M})"
    with pytest.raises(ValueError) as err:
        sorted_codes(batch, params)
    assert str(err.value) == message
    with pytest.raises(ValueError) as one:
        sorted_code(bad, params)
    assert str(one.value) == message


_RRNS_SMALL = RrnsParams(primes=(7, 11, 13), M=500, k=0)
_POLY_SMALL = PolyCodeParams(M=100, p=31, n=10, k=1)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: sorted_codes([x], _RRNS_SMALL),
        lambda x: sorted_codes([0, 1, x], _POLY_SMALL),
        lambda x: sorted_code(x, _POLY_SMALL),
        lambda x: basic_encode(x, _RRNS_SMALL),
        lambda x: encode(x, _POLY_SMALL, random.Random(0)),
        lambda x: inflate_points([0, x]),
        inflate,
    ],
    ids=[
        "sorted_codes.rrns", "sorted_codes.poly", "sorted_code", "basic_encode",
        "encode", "inflate_points", "inflate",
    ],  # fmt: skip
)
def test_a_point_that_is_not_an_int_is_refused(call):
    """A float point is a TypeError, as in `inflate`, not floored: 12.5 used
    to encode as 12.  A numpy int is the int it holds."""
    with pytest.raises(TypeError):
        call(12.5)
    assert call(np.int64(12)) == call(12)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        _poly_cases(),
        st.tuples(
            st.just(RrnsParams(primes=(97, 101, 103, 107, 109, 113, 127, 131), M=10**6, k=2)),
            st.lists(st.integers(0, 10**6 - 1), max_size=6),
        ),
    ),
    st.integers(0, 2**32),
)
def test_encode_equals_scalar_reference(case, seed):
    """The table changes nothing the RNG sees: corruption draws are the same."""
    params, xs = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for x in xs:
        if isinstance(params, RrnsParams):
            basic = [x % q for q in params.primes]
        else:
            basic = _horner(x, params)
        expected = corrupt(sort_code(basic), params.k, params.alphabet, ref_rng)
        assert encode(x, params, rng) == expected
    assert rng.getstate() == ref_rng.getstate()


def test_range_check_before_any_draw():
    rng = random.Random(0)
    state = rng.getstate()
    for bad in (-1, DESK.M):
        with pytest.raises(ValueError, match="outside world"):
            sorted_code(bad, DESK)
        with pytest.raises(ValueError, match="outside world"):
            encode(bad, DESK, rng)
    assert rng.getstate() == state


def test_sort_code():
    assert sort_code([3, 5, 0, 2, 4]) == (0, 2, 3, 4, 5)
    assert sort_code([0, 2, 3]) == (0, 2, 3)
    assert sort_code([4, 4, 4]) == (4, 4, 4)


def test_corrupt_identity_at_k0():
    rng = random.Random(0)
    assert corrupt((0, 2, 3, 4, 5), 0, 7, rng) == (0, 2, 3, 4, 5)


def test_corrupt_window_enumeration():
    # when the last coordinate of (0,2,3,4,5) is selected, the window is
    # {4,5,6} minus the current value 5
    outcomes = set()
    for seed in range(500):
        out = corrupt((0, 2, 3, 4, 5), 1, 7, random.Random(seed))
        if out[:4] == (0, 2, 3, 4) and out[4] != 5:  # last position was selected
            outcomes.add(out)
    assert outcomes == {(0, 2, 3, 4, 4), (0, 2, 3, 4, 6)}


def test_corrupt_properties():
    rng = random.Random(1)
    for _ in range(10_000):
        n = rng.randint(1, 12)
        p = rng.choice([7, 17, 31])
        if n > p:
            continue
        e = tuple(sorted(rng.randrange(p) for _ in range(n)))
        k = rng.randint(0, n)
        out = corrupt(e, k, p, rng)
        assert list(out) == sorted(out)
        assert all(0 <= c < p for c in out)
        assert hamming(e, out) <= k


def _corrupt_reference(e, k, alphabet, rng):
    """`corrupt` as it was written before it drew from getrandbits directly:
    the stream it must reproduce."""
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


def _encode_unsorted_reference(x, params, rng):
    code = basic_encode(x, params)
    for i in rng.sample(range(params.n), params.k):
        code[i] = rng.randrange(params.p)
    return tuple(code)


def _setsize(k):
    """The population size up to which `random.sample` keeps a pool list."""
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _vectors(n, alphabet, rng):
    """Sorted vectors of length n that reach the edge cases of `corrupt`:
    random ones, all-equal ones (every window saturated), ones at 0 and at
    alphabet - 1 only, and runs of repeats."""
    top = alphabet - 1
    yield tuple(sorted(rng.randrange(alphabet) for _ in range(n)))
    yield (0,) * n
    yield (top,) * n
    yield tuple(sorted(rng.choice((0, top)) for _ in range(n)))
    yield tuple(sorted(rng.choice((0, min(1, top), top // 2, top)) for _ in range(n)))


def _assert_same_stream(e, k, alphabet, seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert corrupt(e, k, alphabet, rng) == _corrupt_reference(e, k, alphabet, ref)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 6, 20, 21, 22])
def test_corrupt_matches_sample_and_randrange_at_the_set_size_boundary(k):
    """`random.sample` switches from its pool to its set path above
    setsize(k), and setsize jumps after k = 5 and after k = 21."""
    fill = random.Random(k)
    for n in (_setsize(k), _setsize(k) + 1):
        for alphabet in (1, 2, 31, 211, CODE_LIMIT):
            for e in _vectors(n, alphabet, fill):
                for kk in {0, k, n}:
                    _assert_same_stream(e, kk, alphabet, seed=n * 1000 + kk)


@st.composite
def _corrupt_cases(draw):
    alphabet = draw(st.sampled_from([1, 2, 3, 7, 31, 211, 503, CODE_LIMIT]))
    n = draw(st.one_of(st.integers(0, 30), st.integers(80, 90), st.integers(270, 290)))
    kind = draw(st.integers(0, 4))
    (e,) = itertools.islice(_vectors(n, alphabet, random.Random(draw(st.integers()))), kind, kind + 1)
    k = draw(st.one_of(st.integers(0, n), st.sampled_from([0, n])))
    return e, k, alphabet


@settings(max_examples=300, deadline=None)
@given(_corrupt_cases(), st.integers(0, 2**64))
def test_corrupt_draws_the_stream_of_sample_and_randrange(case, seed):
    """Same output and same generator state afterwards as the reference."""
    e, k, alphabet = case
    _assert_same_stream(e, k, alphabet, seed)


@pytest.mark.parametrize("k", [-1, -5, 6, 7])
def test_corrupt_refuses_k_outside_the_vector_before_any_draw(k):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(ValueError):
        corrupt((0, 2, 3, 4, 5), k, 7, rng)
    assert rng.getstate() == state


@st.composite
def _row_cases(draw):
    """Batches of sorted rows, each row of one of `_vectors`' kinds, so that
    saturated windows and repeated values occur, with k from 0 to n."""
    alphabet = draw(st.sampled_from([1, 2, 3, 7, 31, 503, CODE_LIMIT, 2**32, 2**63 - 1]))
    n = draw(st.one_of(st.just(1), st.integers(1, 12), st.integers(20, 40)))
    fill = random.Random(draw(st.integers()))
    kinds = draw(st.lists(st.integers(0, 4), max_size=8))
    rows = [next(itertools.islice(_vectors(n, alphabet, fill), kind, None)) for kind in kinds]
    k = draw(st.one_of(st.integers(0, n), st.sampled_from([0, n])))
    return np.array(rows, np.int64).reshape(len(rows), n), k, alphabet


@settings(max_examples=300, deadline=None)
@given(_row_cases(), st.integers(0, 2**64))
@example(case=(np.zeros((0, 3), np.int64), 2, 7), seed=0)
@example(case=(np.array([[3]]), 1, 7), seed=1)
@example(case=(np.array([[0, 0, 0], [6, 6, 6], [0, 3, 6]]), 3, 7), seed=2)
@example(case=(np.sort(np.random.default_rng(35).integers(0, 503, (1000, 20))), 2, 503), seed=35)
def test_corrupt_rows_draws_its_stream_and_corrupts_in_order(case, seed):
    """One seed gives one output and leaves the generator in one state, on
    a batch the size of a `sim` epoch too, and the input is not changed.
    Every row stays sorted, at most k coordinates change, and a changed
    coordinate lies in its window, between its new left neighbour and its
    old right one (the sentinels 0 and alphabet - 1 at the ends), so a
    saturated window is left alone."""
    codes, k, alphabet = case
    given_codes = codes.copy()
    rng, again = np.random.default_rng(seed), np.random.default_rng(seed)
    out = encoder.corrupt_rows(codes, k, alphabet, rng).tolist()
    assert out == encoder.corrupt_rows(codes, k, alphabet, again).tolist()
    assert rng.bit_generator.state == again.bit_generator.state
    assert np.array_equal(codes, given_codes)
    for e, row in zip(codes.tolist(), out):
        assert row == sorted(row)
        assert hamming(e, row) <= k
        for i, (old, new) in enumerate(zip(e, row)):
            lo = row[i - 1] if i > 0 else 0
            hi = e[i + 1] if i + 1 < len(e) else alphabet - 1
            assert new == old or lo <= new <= hi
            if lo == hi:
                assert new == old


def _corrupt_distribution(e, k, alphabet):
    """Every outcome of `corrupt(e, k, alphabet, rng)` with its exact
    probability: each k-subset of positions alike, then each chosen
    position, left to right, uniform over its window but its value."""
    dist = Counter()

    def walk(out, positions, prob):
        if not positions:
            dist[tuple(out)] += prob
            return
        i, rest = positions[0], positions[1:]
        lo = out[i - 1] if i > 0 else 0
        hi = out[i + 1] if i + 1 < len(out) else alphabet - 1
        if hi <= lo:
            walk(out, rest, prob)
            return
        for v in range(lo, hi + 1):
            if v != out[i]:
                walk(out[:i] + [v] + out[i + 1 :], rest, prob / (hi - lo))

    subsets = list(itertools.combinations(range(len(e)), k))
    for positions in subsets:
        walk(list(e), positions, Fraction(1, len(subsets)))
    return dist


def test_corrupt_rows_has_the_distribution_of_corrupt():
    """200,000 corruptions of (1, 2, 4, 6) at k = 2 and alphabet 7 from one
    fixed seed, against the exact enumeration of `corrupt`'s 43 outcomes
    (which 20,000 scalar `corrupt` draws stay inside): no other outcome
    occurs, and chi-square is below 76.08, the 0.999 quantile of
    chi-square on 42 degrees of freedom."""
    e, k, alphabet, count = (1, 2, 4, 6), 2, 7, 200_000
    dist = _corrupt_distribution(e, k, alphabet)
    assert len(dist) == 43 and sum(dist.values()) == 1
    scalar = random.Random(34)
    assert {corrupt(e, k, alphabet, scalar) for _ in range(20_000)} <= dist.keys()
    rng = np.random.default_rng(34)
    out = encoder.corrupt_rows(np.tile(np.array(e), (count, 1)), k, alphabet, rng)
    seen, counts = np.unique(out, axis=0, return_counts=True)
    observed = dict(zip(map(tuple, seen.tolist()), counts.tolist()))
    assert observed.keys() <= dist.keys()
    chi2 = sum((observed.get(o, 0) - count * p) ** 2 / (count * p) for o, p in dist.items())
    assert chi2 < 76.08


@pytest.mark.parametrize("k, alphabet", [(-1, 7), (5, 7), (9, 7)])
def test_corrupt_rows_refuses_before_any_draw(k, alphabet):
    """k outside [0, n] leaves the generator's state as it was."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError):
        encoder.corrupt_rows(np.array([[0, 2, 3, 4]] * 3), k, alphabet, rng)
    assert rng.bit_generator.state == state


def test_corrupt_rows_raises_no_numpy_warning():
    """Every warning and every numpy floating-point error is raised here, at
    the shapes and alphabets at the edges: no row, one coordinate, k = n,
    a one-value alphabet and the widest ones, 2^32 and 2^63 - 1."""
    cases = [
        (np.zeros((0, 4), np.int64), 4, 7),
        (np.array([[0], [5]]), 1, 7),
        (np.zeros((3, 5), np.int64), 5, 1),
        (np.array([[0, 2**31, 2**32 - 1]] * 4), 3, 2**32),
        (np.array([[0, 2**62, 2**63 - 2]] * 4), 3, 2**63 - 1),
    ]
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for codes, k, alphabet in cases:
            out = encoder.corrupt_rows(codes, k, alphabet, np.random.default_rng(k))
            assert out.shape == codes.shape


@settings(max_examples=100, deadline=None)
@given(_poly_cases(), st.integers(0, 2**64))
def test_encode_unsorted_draws_the_stream_of_sample_and_randrange(case, seed):
    params, xs = case
    rng, ref = random.Random(seed), random.Random(seed)
    for x in xs:
        assert encode_unsorted(x, params, rng) == _encode_unsorted_reference(x, params, ref)
    assert rng.getstate() == ref.getstate()


# sha256 of the packed rows of 1,000 encodings, each of a point drawn from
# the same random.Random(0) just before it is encoded.  A change to these
# digests changes every encoding the simulator and the benchmark make.
_GOLDEN = {
    "sim": (
        PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2),
        "b6f8a021b1a432bbcfbe8d17c07714a5ff94f1c6508521e2accbaf60e714513d",
    ),
    "row1": (
        PolyCodeParams(M=10**19, p=503, n=100, k=10),
        "bf56634402257d4952ba2c4bcdb7001ae36474b5ca9b2ff7ba334211729ef134",
    ),
    "row3": (
        PolyCodeParams(M=10**19, p=211, n=200, k=20),
        "110f2ed1080d1dbece26b6a7e948a2167283103e8c772a3204fba2017aca5133",
    ),
}


@pytest.mark.parametrize("shape", sorted(_GOLDEN))
def test_encode_output_stream_is_pinned(shape):
    params, digest = _GOLDEN[shape]
    rng = random.Random(0)
    h = hashlib.sha256()
    for _ in range(1000):
        h.update(pack_encoding(encode(rng.randrange(params.M), params, rng)))
    assert h.hexdigest() == digest


def test_encode_recall_bound():
    rng = random.Random(2)
    for _ in range(2000):
        x = rng.randrange(DESK.M)
        a = encode(x, DESK, rng)
        b = encode(x, DESK, rng)
        assert hamming(a, b) <= DESK.tau


_RRNS_WORLDS = [
    ((3, 5, 7), 100),
    ((97, 101, 103, 107, 109, 113, 127, 131), 10**6),
]


@st.composite
def _rrns_cases(draw):
    primes, M = draw(st.sampled_from(_RRNS_WORLDS))
    params = RrnsParams(primes=primes, M=M, k=draw(st.integers(0, len(primes))))
    return params, draw(st.lists(st.integers(0, M - 1), max_size=4))


@st.composite
def _inflated_cases(draw):
    """Points of the inflated world, as `inflate` maps them."""
    n = draw(st.integers(15, 24))
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=n, k=draw(st.integers(0, n)))
    ds = draw(st.lists(st.integers(0, inflation_domain() - 1), max_size=4))
    return params, [inflate(d) for d in ds]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_poly_cases(), _rrns_cases(), _inflated_cases()), st.integers(0, 2**32))
def test_two_encodings_of_one_point_are_within_2k(case, seed):
    """Each encoding corrupts at most k coordinates of one sorted basic code."""
    params, xs = case
    rng = random.Random(seed)
    for x in xs:
        assert hamming(encode(x, params, rng), encode(x, params, rng)) <= 2 * params.k


def test_encode_deterministic_at_k0():
    rng = random.Random(3)
    assert encode(17, SMALL, rng) == (0, 2, 3, 4, 5)


def test_encode_unsorted_properties():
    rng = random.Random(4)
    params = PolyCodeParams(M=10**4, p=31, n=10, k=2)
    for _ in range(2000):
        x = rng.randrange(params.M)
        e = encode_unsorted(x, params, rng)
        assert hamming(e, basic_encode(x, params)) <= params.k
    k0 = PolyCodeParams(M=10**4, p=31, n=10, k=0)
    x = rng.randrange(k0.M)
    assert encode_unsorted(x, k0, rng) == tuple(basic_encode(x, k0))


def test_rrns_params_derivation():
    params = RrnsParams(primes=(3, 5, 7), M=100, k=0)
    assert params.m == 3
    assert params.n == 3
    with pytest.raises(ValueError):
        # largest m-1 moduli already reach M: m residues cannot pin x down
        RrnsParams(primes=(3, 5, 7, 11, 13), M=100, k=0)
    with pytest.raises(ValueError):
        RrnsParams(primes=(5, 3, 7), M=20, k=0)  # not increasing


@pytest.mark.parametrize("M", [0, -5])
def test_a_world_with_no_points_is_refused(M):
    """PolyCodeParams accepted M < 1 with m = 1, and every encode failed
    later with "x=0 outside world"; RrnsParams refused it only through the
    m-1 product rule, in a message that did not name M."""
    with pytest.raises(ValueError, match=f"got M={M}$"):
        PolyCodeParams(M=M, p=31, n=10, k=2)
    with pytest.raises(ValueError, match=f"got M={M}$"):
        RrnsParams(primes=(3, 5, 7), M=M, k=0)
    assert PolyCodeParams(M=1, p=2, n=1, k=0).m == 1
    assert RrnsParams(primes=(3,), M=2, k=0).m == 1


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (PolyCodeParams, dict(p=2, n=1, k=0)),
        (RrnsParams, dict(primes=(3,), k=0)),
        (RrnsParams, dict(primes=(3, 5, 7), k=0)),
        (RrnsParams, dict(primes=(3, 5, 7), k=1)),
    ],
    ids=["poly", "rrns_one_modulus", "rrns_three_moduli", "rrns_corrupted"],
)
def test_a_one_point_world_is_accepted(cls, kwargs):
    """With m = 1 the rule on the largest m-1 moduli holds vacuously:
    RrnsParams refused every one-point world, because the empty product 1
    is not below M = 1."""
    params = cls(M=1, **kwargs)
    assert params.m == 1
    e = encode(0, params, random.Random(0))
    assert len(e) == params.n
    assert sum(c != 0 for c in e) <= params.k
    with pytest.raises(ValueError):
        encode(1, params, random.Random(0))


@pytest.mark.parametrize(
    "primes, M, k, message",
    [
        ((), 100, 0, "need at least one modulus"),
        ((3, 9, 11), 100, 0, "modulus 9 is not prime"),
        ((3, 5, 7), 100, 4, "need 0 <= k <= n"),
        ((3, 5, 7), 100, -1, "need 0 <= k <= n"),
        ((3, 5, 7), 106, 0, "product of all moduli below M"),
    ],
    ids=["no_moduli", "composite", "k_above_n", "k_negative", "world_too_large"],
)
def test_rrns_params_refusals(primes, M, k, message):
    with pytest.raises(ValueError, match=message):
        RrnsParams(primes=primes, M=M, k=k)


def test_residue_digit_count():
    assert residue_digit_count(15, (3, 5, 7)) == 2
    assert residue_digit_count(105, (3, 5, 7)) == 3
    with pytest.raises(ValueError, match="product of all moduli below M"):
        residue_digit_count(106, (3, 5, 7))


def test_rrns_encode_examples():
    params = RrnsParams(primes=(3, 5, 7), M=100, k=0)
    rng = random.Random(5)
    assert encode(17, params, rng) == (2, 2, 3)
    assert encode(0, params, rng) == (0, 0, 0)


def test_rrns_basic_min_distance_exhaustive():
    params = RrnsParams(primes=(11, 13, 17, 19, 23), M=2000, k=0)
    assert params.m == 3
    codes = np.array(
        [basic_encode(x, params) for x in range(params.M)], dtype=np.int16
    )
    best = params.n
    for i in range(0, params.M, 256):
        chunk = codes[i : i + 256]
        dists = (chunk[:, None, :] != codes[None, :, :]).sum(axis=2)
        np.fill_diagonal(dists[:, i : i + 256], params.n)
        best = min(best, int(dists.min()))
    assert best == params.n - params.m + 1


def test_rrns_recall_bound():
    params = RrnsParams(
        primes=(97, 101, 103, 107, 109, 113, 127, 131), M=10**6, k=2
    )
    rng = random.Random(6)
    for _ in range(2000):
        x = rng.randrange(params.M)
        a = encode(x, params, rng)
        b = encode(x, params, rng)
        assert hamming(a, b) <= params.tau
        assert all(0 <= c < params.alphabet for c in a)


def test_inflation_offsets_and_range():
    from tracecloak.encoder import _inflation_bands

    bands = _inflation_bands()
    base = tuple(q for q, _ in bands)
    assert base == tuple(primes(16)) and base[:3] == (2, 3, 5)
    # band i holds q_i primes from offset s_i = q_1 + ... + q_{i-1} of the pool
    assert [len(band) for _, band in bands] == list(base)
    assert bands[0][1] == (2, 3) and bands[1][1] == (5, 7, 11)
    assert sum((band for _, band in bands), ()) == tuple(primes(sum(base)))
    assert inflation_domain() > 10**19
    assert inflate(0) < inflate_range_bound()


def test_inflate_round_trip_and_factors():
    rng = random.Random(7)
    for _ in range(500):
        x = rng.randrange(inflation_domain())
        y = inflate(x)
        assert deflate(y) == x
        factors = inflation_factors(y)
        assert len(factors) == 16
        assert len(set(factors)) == 16  # square-free
        assert math.prod(factors) == y


_BASE = primes(16)
_POOL = primes(sum(_BASE))


def _inflate_reference(x):
    """`inflate` as a product over one pool of the first 381 primes: band i
    starts at offset s_i = q_1 + ... + q_{i-1}, and x picks pool[s_i + x mod q_i]."""
    y, s = 1, 0
    for q in _BASE:
        y *= _POOL[s + x % q]
        s += q
    return y


@settings(max_examples=200, deadline=None)
@given(st.integers(0, inflation_domain() - 1))
@example(0)
@example(inflation_domain() - 1)
def test_inflate_equals_the_pool_product(x):
    y = inflate(x)
    assert y == _inflate_reference(x)
    assert deflate(y) == x


def test_deflate_refuses_a_value_outside_the_image():
    y = inflate(12345)
    f = inflation_factors(y)[0]
    for bad in (1, y // f, y * f):  # bands with no factor; a repeated factor
        with pytest.raises(ValueError, match="not in the image of inflate"):
            deflate(bad)


def test_inflated_digit_count():
    assert inflated_digit_count(503) == 15


def test_inflate_out_of_range():
    with pytest.raises(ValueError):
        inflate(-1)
    with pytest.raises(ValueError):
        inflate(inflation_domain())


_DOMAIN_EDGES = [0, 1, 2**63 - 1, 2**63, inflation_domain() - 1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, inflation_domain() - 1), max_size=8))
@example([])
@example(_DOMAIN_EDGES)
def test_inflate_points_equal_inflate(xs):
    assert inflate_points(xs) == [inflate(x) for x in xs]
    assert all(type(y) is int for y in inflate_points(xs))


@pytest.mark.parametrize("bad", [-1, inflation_domain()])
def test_inflate_points_refuse_a_point_before_computing(monkeypatch, bad):
    def computed():
        raise AssertionError("computed before the range check")

    with pytest.raises(ValueError) as scalar:
        inflate(bad)
    monkeypatch.setattr(encoder, "_inflation_arrays", computed)
    for batch in ([bad], _DOMAIN_EDGES + [bad], [bad] + _DOMAIN_EDGES):
        with pytest.raises(ValueError) as err:
            inflate_points(batch)
        assert str(err.value) == str(scalar.value)


def test_encoding_serialization():
    assert format_encoding((0, 2, 211)) == "0000000200d3"
    assert parse_encoding("0000000200d3") == (0, 2, 211)
    assert parse_encoding("FFFF00D3") == (CODE_LIMIT - 1, 211)
    assert format_encoding(np.array([1, 2], dtype=np.int64)) == "00010002"
    with pytest.raises(ValueError):
        format_encoding(())
    with pytest.raises(ValueError):
        pack_encoding(())
    for row in (b"", b"\x00", b"\x00\x01\x02"):  # not whole coordinates
        with pytest.raises(ValueError):
            unpack_encoding(row)


_rows = st.lists(st.integers(0, CODE_LIMIT - 1), min_size=1, max_size=40).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_rows)
def test_encoding_round_trips_as_four_hex_digits_a_coordinate(e):
    text = format_encoding(e)
    assert len(text) == 4 * len(e)
    assert set(text) <= set("0123456789abcdef")
    assert parse_encoding(text) == e


@settings(max_examples=300, deadline=None)
@given(_rows)
def test_pack_round_trips_and_is_what_the_hex_spells(e):
    row = pack_encoding(e)
    assert len(row) == 2 * len(e)
    assert unpack_encoding(row) == e
    assert format_encoding(e) == row.hex()


@settings(max_examples=300, deadline=None)
@given(
    _rows,
    st.integers(0, 40),
    st.one_of(st.integers(CODE_LIMIT, 2**70), st.integers(max_value=-1), st.floats()),
)
def test_format_encoding_refuses_what_a_field_cannot_hold(e, at, bad):
    e = list(e)
    e.insert(at, bad)
    with pytest.raises(ValueError):
        format_encoding(e)
    with pytest.raises(ValueError):
        pack_encoding(e)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.text("0123456789abcdefABCDEF", max_size=24),
        # whitespace, signs, an 0x prefix and non-ASCII digits among hex digits
        st.text("0f9aF \t\n\u00a0+-xX\u0663", max_size=12),
        _rows.map(format_encoding),
    )
)
def test_parse_encoding_reads_exactly_four_hex_digits_a_coordinate(text):
    try:
        e = parse_encoding(text)
    except ValueError:
        hexdigits = set("0123456789abcdefABCDEF")
        assert not text or len(text) % 4 or not set(text) <= hexdigits
        return
    assert format_encoding(e) == text.lower()


def _module_state(module):
    """The size of each container, and of each function cache, that a
    module holds, and the `struct.Struct`s it holds, each of one format, at
    top level or in its lists."""
    state = {}
    for name, value in vars(module).items():
        if hasattr(value, "cache_info"):
            state[name] = value.cache_info().currsize
        elif isinstance(value, (dict, list, set, bytearray)):
            state[name] = len(value)
        items = value if isinstance(value, list) else [value]
        structs = sum(isinstance(item, struct.Struct) for item in items)
        if structs:
            state[f"{name} struct.Struct"] = structs
    return state


def _structs(state):
    """How many `struct.Struct`s a `_module_state` counted."""
    return sum(v for k, v in state.items() if k.endswith(" struct.Struct"))


def test_codec_state_does_not_grow_with_the_lengths_it_reads():
    """A client picks its line lengths; the codec, hex or packed, keeps one
    `struct.Struct` and nothing per length."""
    before = _module_state(encoder)
    assert _structs(before) == 1  # the codec's one slot
    for k in range(1, 1001):
        text = format_encoding(range(k, 2 * k))
        assert parse_encoding(text) == tuple(range(k, 2 * k))
        with pytest.raises(ValueError):
            parse_encoding(text + "0")
        row = pack_encoding(range(k, 2 * k))
        assert unpack_encoding(row) == tuple(range(k, 2 * k))
        with pytest.raises(ValueError):
            unpack_encoding(row + b"0")
    assert _module_state(encoder) == before


def test_threads_that_keep_replacing_the_kept_struct_still_get_their_rows():
    """Each codec call reads the kept Struct once: threads that replace it
    with their own lengths, switching every microsecond, never pack or
    unpack a row with another thread's format."""
    errors, lengths = [], (1, 2, 3, 20, 21)
    start = threading.Barrier(len(lengths), timeout=30)

    def work(k):
        coords = tuple(range(k))
        row = struct.pack(f">{k}H", *coords)
        try:
            start.wait()
            for _ in range(3000):
                if pack_encoding(coords) != row or unpack_encoding(row) != coords:
                    raise AssertionError(f"wrong row at length {k}")
        except Exception as exc:  # reported below, with the thread's length
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,)) for k in lengths]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


_CODEC_CALLS = ("pack", "unpack", "format", "parse")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        # small lengths repeat often, so that calls reuse the kept Struct
        st.tuples(st.one_of(st.integers(1, 3), st.integers(1, 300)), st.sampled_from(_CODEC_CALLS)),
        min_size=1,
        max_size=30,
    ),
    st.randoms(use_true_random=False),
)
def test_codec_equals_struct_whatever_the_order_of_lengths(calls, rng):
    """Over any sequence of row lengths, each codec call gives what `struct`
    gives with that length's own format."""
    for k, call in calls:
        coords = [rng.randrange(CODE_LIMIT) for _ in range(k)]
        fmt = f">{k}H"
        row = struct.pack(fmt, *coords)
        if call == "pack":
            assert pack_encoding(coords) == row
        elif call == "unpack":
            assert unpack_encoding(row) == struct.unpack(fmt, row)
        elif call == "format":
            assert format_encoding(coords) == row.hex()
        else:
            assert parse_encoding(row.hex()) == struct.unpack(fmt, row)


def test_param_file_round_trip(tmp_path):
    poly = tmp_path / "poly.txt"
    save_params(DESK, poly)
    assert load_params(poly) == DESK

    rrns = RrnsParams(primes=(11, 13, 17, 19, 23), M=2000, k=1)
    path = tmp_path / "rrns.txt"
    save_params(rrns, path)
    assert load_params(path) == rrns

    # blank lines and comment lines are skipped
    commented = tmp_path / "commented.txt"
    commented.write_text("# desk parameters\n\n" + poly.read_text() + "  \n  # end\n")
    assert load_params(commented) == DESK


def test_param_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("M=100\n")
    with pytest.raises(ValueError):
        load_params(path)
    path.write_text("garbage line\n")
    with pytest.raises(ValueError):
        load_params(path)
    # a file that names a key twice, a key no variant reads, or p or n
    # beside primes is refused by that key, not read by picking one line
    for text, key in [
        ("M=1000\nk=2\nk=1\np=31\nn=10\n", "'k'"),
        ("M=1000\nM=1000\nk=1\np=31\nn=10\n", "'M'"),
        ("M=1000\nk=1\np=31\nn=10\ntau=2\n", "'tau'"),
        ("M=1000\nK=1\np=31\nn=10\n", "'K'"),
        ("M=1000\nk=1\np=31\nprimes=11,13,17,19,23\n", "'p'"),
        ("M=1000\nk=1\nn=10\nprimes=11,13,17,19,23\n", "'n'"),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match=key):
            load_params(path)
