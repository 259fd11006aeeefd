"""Hamming-range matching over stored encodings.

`scan_match` is the definitional oracle; `MatchIndex` is the production
structure.  The index partitions the n coordinate positions into tau+1
contiguous blocks: two vectors within distance tau must agree exactly on
at least one block (pigeonhole), so candidate retrieval by block key
followed by full verification returns exactly the oracle's result set.

The index also keeps every encoding as one row of a flat `uint16` store,
so a large candidate set is verified in a single vectorised compare; a small
one is verified in Python, where numpy's fixed cost per call would dominate.
"""

from __future__ import annotations

import operator
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

CODE_LIMIT = 1 << 16  # stored coordinates lie in [0, CODE_LIMIT): uint16 rows
# Candidate sets with at least this many coordinates (candidates * n) are
# verified with numpy.  Below it, the fixed cost of the numpy calls (about
# 15 us) exceeds the Python loop's (about 0.05 us per coordinate); on a
# 2-vCPU VM (Python 3.11, numpy 2.4) the crossover was near 14 candidates
# at n=20 and 4 at n=200.
NUMPY_MIN_CELLS = 400


@dataclass(frozen=True)
class DatabaseEntry:
    user_id: str
    encoding: tuple[int, ...]
    tag: str = "uninfected"


def hamming(a: Sequence[int], b: Sequence[int]) -> int:
    """Number of coordinate positions where a and b differ."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x != y for x, y in zip(a, b))


def scan_match(
    entries: Iterable[DatabaseEntry], e: Sequence[int], tau: int
) -> list[DatabaseEntry]:
    """Exhaustive O(D) filter: every entry within Hamming distance tau of e."""
    return [entry for entry in entries if hamming(entry.encoding, e) <= tau]


def _partition(n: int, pieces: int) -> list[tuple[int, int]]:
    """Split positions 0..n-1 into `pieces` contiguous blocks, sizes off by <= 1."""
    base, rem = divmod(n, pieces)
    blocks = []
    start = 0
    for i in range(pieces):
        size = base + (1 if i < rem else 0)
        blocks.append((start, start + size))
        start += size
    return blocks


class MatchIndex:
    """Static Hamming-range index with exact (oracle-equal) query results.

    Storage is (tau+1) block keys per entry plus one `uint16` row of codes;
    entry ids are insertion order.  Mutations are serialized by a lock;
    queries read a consistent snapshot (entries are append-only).

    The rows live in one flat `array("H")`, row `eid` at `eid * n`, which
    grows in place with amortised O(1) appends.  numpy reads it through a
    buffer view, and an array that is exporting a view cannot grow, so the
    view is made, gathered from and dropped under the lock.
    """

    def __init__(self, n: int, tau: int):
        if tau < 0 or n < 1:
            raise ValueError("need n >= 1 and tau >= 0")
        self.n = n
        self.tau = tau
        self.blocks = _partition(n, tau + 1)
        self._tables: list[dict[tuple[int, ...], list[int]]] = [
            {} for _ in self.blocks
        ]
        self._entries: list[DatabaseEntry] = []
        self._codes = array("H")
        self._lock = threading.Lock()
        self._queries = self._candidates = self._hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[DatabaseEntry]:
        return list(self._entries)

    def stats(self) -> dict[str, int]:
        """Queries answered, candidates verified and hits returned so far."""
        with self._lock:
            return {
                "queries": self._queries,
                "candidates": self._candidates,
                "hits": self._hits,
            }

    def add(self, entry: DatabaseEntry) -> None:
        enc = entry.encoding
        if len(enc) != self.n:
            raise ValueError(f"encoding length {len(enc)} != index length {self.n}")
        try:
            row = array("H", enc)  # range-checks every coordinate
        except OverflowError:
            pos = next(i for i, c in enumerate(enc) if not 0 <= c < CODE_LIMIT)
            raise ValueError(
                f"coordinate {enc[pos]} at position {pos} outside [0, {CODE_LIMIT})"
            ) from None
        with self._lock:
            eid = len(self._entries)
            self._codes.extend(row)  # before the id is published in the tables
            self._entries.append(entry)
            for table, (lo, hi) in zip(self._tables, self.blocks):
                table.setdefault(enc[lo:hi], []).append(eid)

    def key_count(self) -> int:
        """Total stored block keys; always (tau+1) * D."""
        return sum(len(ids) for table in self._tables for ids in table.values())

    def query(self, e: Sequence[int], tau: int | None = None) -> list[DatabaseEntry]:
        """All entries within distance tau of e, in insertion order; identical
        to scan_match."""
        if tau is None:
            tau = self.tau
        if tau > self.tau:
            raise ValueError(f"query tau={tau} exceeds build-time tau={self.tau}")
        if len(e) != self.n:
            raise ValueError(f"query length {len(e)} != index length {self.n}")
        e = tuple(e)
        candidates: set[int] = set()
        for table, (lo, hi) in zip(self._tables, self.blocks):
            candidates.update(table.get(e[lo:hi], ()))
        entries = self._entries
        if len(candidates) * self.n < NUMPY_MIN_CELLS:
            hits = [
                entries[i]
                for i in sorted(candidates)
                if sum(map(operator.ne, entries[i].encoding, e)) <= tau
            ]
        else:
            ids = np.fromiter(candidates, dtype=np.intp, count=len(candidates))
            ids.sort()
            try:
                q = np.frombuffer(array("H", e), dtype=np.uint16)
            except OverflowError:  # -1 stands for a coordinate no row can hold
                q = np.array([c if 0 <= c < CODE_LIMIT else -1 for c in e], dtype=np.int32)
            with self._lock:
                rows = np.frombuffer(self._codes, dtype=np.uint16).reshape(-1, self.n)[ids]
            far = np.count_nonzero(rows != q, axis=1)
            hits = [entries[i] for i in ids[far <= tau].tolist()]
        with self._lock:
            self._queries += 1
            self._candidates += len(candidates)
            self._hits += len(hits)
        return hits


def build_index(
    entries: Iterable[DatabaseEntry], n: int, tau: int
) -> MatchIndex:
    index = MatchIndex(n, tau)
    for entry in entries:
        index.add(entry)
    return index


def save_entries(entries: Iterable[DatabaseEntry], path: str | Path) -> None:
    """Write entries as `user_id<TAB>tag<TAB>comma-separated-coords` lines."""
    with open(path, "w") as fh:
        for entry in entries:
            coords = ",".join(str(c) for c in entry.encoding)
            fh.write(f"{entry.user_id}\t{entry.tag}\t{coords}\n")


def load_entries(path: str | Path) -> list[DatabaseEntry]:
    entries = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
        user_id, tag, coords = parts
        try:
            encoding = tuple(int(tok) for tok in coords.split(","))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad coordinate list {coords!r}") from None
        entries.append(DatabaseEntry(user_id=user_id, tag=tag, encoding=encoding))
    return entries
