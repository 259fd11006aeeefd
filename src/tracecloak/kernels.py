"""Numpy counting kernel for the Monte Carlo bound check.

`analysis.mc_match_prob` draws batches of random rows and counts those whose
sorted version lies within Hamming distance tau of a fixed sorted vector.
The caller supplies the rows, so the count depends only on its RNG stream.
"""

from __future__ import annotations

import numpy as np


def count_sorted_within(z: np.ndarray, e: np.ndarray, tau: int) -> int:
    """Rows of z whose sorted version is within Hamming distance tau of e."""
    z = np.sort(np.asarray(z, dtype=np.int64), axis=1)
    e = np.asarray(e, dtype=np.int64)
    return int(((z != e).sum(axis=1) <= tau).sum())


def backend() -> str:
    """Always "pure", the value every benchmark result has recorded so far.

    The benchmark's provenance still reads this field. The function stays only
    until the benchmark drops `kernels_backend` (ROADMAP item 3).
    """
    return "pure"
