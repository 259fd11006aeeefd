import itertools
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
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
    _vandermonde,
    encode,
    encode_unsorted,
    format_encoding,
    inflate,
    inflate_range_bound,
    inflated_digit_count,
    inflation_domain,
    inflation_factors,
    load_params,
    parse_encoding,
    save_params,
    sort_code,
    sorted_codes,
)
from tracecloak.matcher import hamming
from tracecloak.numtheory import eval_poly, to_digits

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


# p=4294967311 is the first prime above 2^32: (p-1)^2 alone passes 2^63, so
# its table falls back to Python ints
_PRIMES = (2, 7, 31, 101, 211, 503, 65521, 4294967311)


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


@settings(max_examples=200, deadline=None)
@given(_poly_cases())
def test_sorted_codes_equal_horner_reference(case):
    params, xs = case
    codes = sorted_codes(xs, params)
    assert codes.shape == (len(xs), params.n)
    assert codes.tolist() == [sorted(_horner(x, params)) for x in xs]
    for x in xs:
        assert basic_encode(x, params) == _horner(x, params)


def test_table_dtype_bound():
    assert _vandermonde(PolyCodeParams(M=10**19, p=65521, n=100, k=0)).dtype == np.int64
    wide = PolyCodeParams(M=10**30, p=4294967311, n=5, k=0)
    assert _vandermonde(wide).dtype == object
    assert sorted_codes([10**30 - 1], wide).tolist() == [sorted(_horner(10**30 - 1, wide))]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(
        [
            RrnsParams(primes=(3, 5, 7), M=100, k=1),
            RrnsParams(primes=(97, 101, 103, 107, 109, 113, 127, 131), M=10**6, k=2),
            RrnsParams(primes=(2**61 - 1, 2**64 + 13, 2**64 + 37), M=2**120, k=1),
        ]
    ),
    st.data(),
)
def test_rrns_sorted_codes_equal_residues(params, data):
    xs = data.draw(st.lists(st.integers(0, params.M - 1), max_size=6))
    assert sorted_codes(xs, params).tolist() == [
        sorted(x % q for q in params.primes) for x in xs
    ]
    for x in xs:
        assert basic_encode(x, params) == [x % q for q in params.primes]


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
            sorted_codes([0, bad], DESK)
        with pytest.raises(ValueError, match="outside world"):
            encode(bad, DESK, rng)
    assert rng.getstate() == state
    assert sorted_codes([], DESK).shape == (0, DESK.n)


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
    ((2**61 - 1, 2**64 + 13, 2**64 + 37), 2**120),
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
    from tracecloak.encoder import _inflation_tables

    base, offsets, _ = _inflation_tables()
    assert base[:3] == (2, 3, 5)
    assert offsets[:3] == (0, 2, 5)
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
        import math

        assert math.prod(factors) == y


def test_inflated_digit_count():
    assert inflated_digit_count(503) == 15


def test_inflate_out_of_range():
    with pytest.raises(ValueError):
        inflate(-1)
    with pytest.raises(ValueError):
        inflate(inflation_domain())


def test_encoding_serialization():
    assert format_encoding((0, 2, 3)) == "0,2,3"
    assert parse_encoding("0,2,3") == (0, 2, 3)


# The codec's intern table must not change a byte: it is checked against
# the plain str() and int() codec it replaced.


def _reference_format(coords):
    return ",".join(str(c) for c in coords)


def _reference_parse(text):
    return tuple(int(tok) for tok in text.strip().split(","))


def _parsed_or_error(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


_coordinates = st.one_of(
    st.integers(0, 600),
    st.integers(0, CODE_LIMIT - 1),
    st.integers(CODE_LIMIT - 2, CODE_LIMIT + 2),
    st.integers(-3, -1),
    st.just(2**70),
    st.integers(),
)
_tokens = st.one_of(
    _coordinates.map(str),
    # whitespace, signs, underscores, non-ASCII digits and empty tokens
    st.text(alphabet="0129+-_ \t\n\u00a0\u0663\uff11x", max_size=6),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(_tokens, min_size=1, max_size=8).map(",".join), st.text()))
def test_parse_encoding_equals_int_reference(text):
    expected = _parsed_or_error(_reference_parse, text)
    assert _parsed_or_error(parse_encoding, text) == expected
    assert _parsed_or_error(parse_encoding, text) == expected  # table grown


@settings(max_examples=400, deadline=None)
@given(st.lists(_coordinates, max_size=12))
def test_format_encoding_equals_str_reference(coords):
    expected = _reference_format(coords)
    assert format_encoding(coords) == expected
    assert format_encoding(tuple(coords)) == expected  # table grown
    if coords and all(-(2**63) <= c < 2**63 for c in coords):
        assert format_encoding(np.array(coords, dtype=np.int64)) == expected
    if coords:
        assert parse_encoding(expected) == tuple(coords)


def test_format_encoding_falls_back_on_non_ints():
    for coords in ([], (1.0, 2), ("7", 8), np.array([1.5, 2.0])):
        assert format_encoding(coords) == _reference_format(coords)


def test_intern_table_growth_is_exact_under_threads(monkeypatch):
    """Threads that grow the intern table at the same time all get exact
    results, and the table ends up exact: no index was ever shifted."""
    tops = [2**j - 1 for j in range(17)] + [CODE_LIMIT, 2**70]
    errors = []

    def work(barrier, offset):
        barrier.wait(timeout=60)
        for top in tops[offset:] + tops[:offset]:
            coords = (0, top // 3, top)
            text = _reference_format(coords)
            if format_encoding(coords) != text or parse_encoding(text) != coords:
                errors.append(coords)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for _ in range(8):
            monkeypatch.setattr(encoder, "_STR", [])
            monkeypatch.setattr(encoder, "_INT", {})
            barrier = threading.Barrier(4)
            threads = [
                threading.Thread(target=work, args=(barrier, i)) for i in (0, 0, 9, 16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            table = encoder._STR
            assert len(table) == CODE_LIMIT  # grown to the cap, not past it
            assert table == [str(i) for i in range(CODE_LIMIT)]
            assert encoder._INT == {t: i for i, t in enumerate(table)}
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []


def test_param_file_round_trip(tmp_path):
    poly = tmp_path / "poly.txt"
    save_params(DESK, poly)
    assert load_params(poly) == DESK

    rrns = RrnsParams(primes=(11, 13, 17, 19, 23), M=2000, k=1)
    path = tmp_path / "rrns.txt"
    save_params(rrns, path)
    assert load_params(path) == rrns


def test_param_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("M=100\n")
    with pytest.raises(ValueError):
        load_params(path)
    path.write_text("garbage line\n")
    with pytest.raises(ValueError):
        load_params(path)
