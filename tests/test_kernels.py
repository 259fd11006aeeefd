import numpy as np

from tracecloak import kernels


def _reference_count_sorted(z, e, tau):
    hits = 0
    for row in z:
        hits += sum(a != b for a, b in zip(sorted(row), e)) <= tau
    return hits


def test_count_sorted_within_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows = int(rng.integers(1, 200))
        n = int(rng.integers(1, 12))
        p = int(rng.integers(2, 40))
        tau = int(rng.integers(0, n + 1))
        z = rng.integers(0, p, size=(rows, n), dtype=np.int64)
        e = np.sort(rng.integers(0, p, size=n, dtype=np.int64))
        expected = _reference_count_sorted(z.tolist(), e.tolist(), tau)
        assert kernels.count_sorted_within(z, e, tau) == expected
