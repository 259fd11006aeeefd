import random

import pytest

from tracecloak.numtheory import (
    SingularSystemError,
    crt_reconstruct,
    eval_poly,
    from_digits,
    is_prime,
    primes,
    to_digits,
    vandermonde_solve,
)


def test_is_prime_known_values():
    assert is_prime(503)
    assert is_prime(877)
    assert is_prime(1451)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert is_prime(2)
    assert not is_prime(503 * 877)
    # squares of primes are the trial division's edge: isqrt(n) must be tried
    for q in (2, 3, 13, 251):
        assert not is_prime(q * q)
    assert is_prime(65521)  # the largest prime below 2^16


def test_primes_basic():
    assert primes(3, 2) == [2, 3, 5]
    assert primes(0, 2) == []
    assert primes(4, 10) == [11, 13, 17, 19]
    with pytest.raises(ValueError, match="non-negative"):
        primes(-1)


def test_first_16_primes_product_exceeds_1e19():
    import math

    assert math.prod(primes(16, 2)) > 10**19


def test_primes_match_sieve_oracle():
    # trial-division sieve up to the 10^4-th prime (104729)
    limit = 104730
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(sieve[i * i :: i]))
    expected = [i for i in range(limit) if sieve[i]][:10_000]
    assert primes(10_000, 2) == expected


def test_to_digits_examples():
    assert to_digits(17, 7, 2) == [3, 2]
    assert to_digits(0, 7, 2) == [0, 0]
    with pytest.raises(ValueError):
        to_digits(49, 7, 2)


@pytest.mark.parametrize("p, m", [(2, 1), (7, 2), (503, 15), (65521, 3)])
def test_to_digits_edges(p, m):
    """p^m and x < 0 are refused with the same message; p^m - 1 is the
    largest point with m digits, all of them p - 1."""
    assert to_digits(p**m - 1, p, m) == [p - 1] * m
    for x in (p**m, p**m + 1, -1, -(p**m)):
        with pytest.raises(ValueError, match=rf"^x={x} out of range \[0, {p}\^{m}\)$"):
            to_digits(x, p, m)


def test_to_digits_of_no_digits():
    assert to_digits(0, 7, 0) == []
    with pytest.raises(ValueError, match=r"^x=1 out of range \[0, 7\^0\)$"):
        to_digits(1, 7, 0)


def test_digit_round_trip():
    rng = random.Random(0)
    for _ in range(2000):
        p = rng.choice([2, 3, 7, 31, 503])
        m = rng.randint(1, 8)
        x = rng.randrange(p**m)
        digits = to_digits(x, p, m)
        assert len(digits) == m
        assert from_digits(digits, p) == x


def test_eval_poly_examples():
    assert eval_poly([3, 2], 2, 7) == 0
    assert eval_poly([3, 2], 0, 7) == 3
    assert eval_poly([3, 2], 4, 7) == 4


def test_vandermonde_solve_examples():
    assert vandermonde_solve([(0, 3), (1, 5)], 2, 7) == [3, 2]
    assert vandermonde_solve([(0, 4)], 1, 7) == [4]


def test_vandermonde_solve_refuses_the_wrong_number_of_points():
    with pytest.raises(ValueError, match="expected 2 points, got 1"):
        vandermonde_solve([(0, 3)], 2, 7)
    with pytest.raises(ValueError, match="expected 1 points, got 2"):
        vandermonde_solve([(0, 3), (1, 5)], 1, 7)


def test_vandermonde_solve_repeated_index():
    with pytest.raises(SingularSystemError):
        vandermonde_solve([(1, 3), (1, 5)], 2, 7)


def test_vandermonde_inverts_polynomial_evaluation():
    rng = random.Random(1)
    for _ in range(1000):
        p = rng.choice([7, 17, 31, 101, 211, 503])
        m = rng.randint(1, min(16, p))  # up to the inflated m' = 15 and past it
        x = rng.randrange(p**m)
        digits = to_digits(x, p, m)
        xs = rng.sample(range(p), m)
        points = [(xi, eval_poly(digits, xi, p)) for xi in xs]
        assert vandermonde_solve(points, m, p) == digits


def test_crt_examples():
    assert crt_reconstruct([(2, 3), (2, 5), (3, 7)]) == 17
    assert crt_reconstruct([(0, 3), (0, 5), (0, 7)]) == 0
    assert crt_reconstruct([(4, 11)]) == 4


def test_crt_round_trip():
    rng = random.Random(2)
    moduli = [3, 5, 7, 11, 13, 17]
    import math

    N = math.prod(moduli)
    for _ in range(2000):
        x = rng.randrange(N)
        assert crt_reconstruct([(x % q, q) for q in moduli]) == x
