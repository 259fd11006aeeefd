"""Hamming-range matching over stored encodings.

`scan_match` is the definitional oracle; `MatchIndex` is the production
structure.  The index partitions the n coordinate positions into tau+1
contiguous blocks: two vectors within distance tau must agree exactly on
at least one block (pigeonhole), so candidate retrieval by block key
followed by full verification returns exactly the oracle's result set.

The index holds the only copy of each stored encoding: one row of a flat
`uint16` store, beside columns of user ids and tags.  A large candidate set
is verified in a single vectorised compare; a small one is verified in
Python, where numpy's fixed cost per call would dominate.  A `DatabaseEntry`
is built only when one is returned.
"""

from __future__ import annotations

import operator
import struct
import sys
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# stored coordinates lie in [0, CODE_LIMIT): uint16 rows, and the wire codec
# interns the same range
from .encoder import CODE_LIMIT, format_encoding, parse_encoding

# Candidate sets with at least this many coordinates (candidates * n) are
# verified with numpy.  Below it, the fixed cost of the numpy calls (about
# 15 us) exceeds the Python loop's (about 0.05 us per coordinate); on a
# 2-vCPU VM (Python 3.11, numpy 2.4) the crossover was near 14 candidates
# at n=20 and 4 at n=200.  Postings holding at least this many ids, repeats
# included, are deduplicated and sorted with numpy too.  There the crossover
# with a Python set was near 100 ids (8 us either way), and numpy was 4x
# faster at 800.
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


# Entry ids are packed into the postings as native uint32, which numpy reads
# as np.uint32 and memoryview as "I" (a C unsigned int, 32 bits on every
# platform CPython supports).
ID_LIMIT = 1 << 32


def _storable(c) -> bool:
    try:
        return 0 <= operator.index(c) < CODE_LIMIT
    except TypeError:
        return False


class MatchIndex:
    """Static Hamming-range index with exact (oracle-equal) query results.

    Storage is (tau+1) block keys per entry, one `uint16` row of codes and a
    user id and tag in parallel columns; entry ids are insertion order.
    Mutations are serialized by a lock; queries read a consistent snapshot
    (entries are append-only).

    No `DatabaseEntry` is stored.  `add` reads the entry's user id, encoding
    and tag and keeps none of its objects but the strings, of which the index
    keeps one copy each, so a user who reports many times costs a pointer
    per report.  A hit's entry is rebuilt from its row, and `entries`
    rebuilds them all.

    The rows live in one flat `array("H")`, row `eid` at `eid * n`, which
    grows in place with amortised O(1) appends.  numpy reads it through a
    buffer view, and an array that is exporting a view cannot grow, so the
    view is made, gathered from and dropped under the lock.  A slice of the
    array is a copy that exports nothing, so rows read by slices need no
    lock.

    Each block's table maps the block's slice of a row's bytes to the ids of
    the entries holding that slice, packed as native uint32 and appended by
    concatenation.  A dict holding only bytes or str is not tracked by the
    cyclic garbage collector, so no collection walks the tables or the
    string copies however large the store grows: an entry adds no tracked
    object.  An append copies the posting, 4 bytes per id, which is what a
    query that looks up the key collects anyway.
    """

    def __init__(self, n: int, tau: int):
        if tau < 0 or n < 1:
            raise ValueError("need n >= 1 and tau >= 0")
        self.n = n
        self.tau = tau
        self.blocks = _partition(n, tau + 1)
        self._slices = [slice(2 * lo, 2 * hi) for lo, hi in self.blocks]  # of row bytes
        self._tables: list[dict[bytes, bytes]] = [{} for _ in self.blocks]
        self._row = struct.Struct(f"={n}H")  # its pack range-checks every coordinate
        self._codes = array("H")
        self._user_ids: list[str] = []
        self._tags: list[str] = []
        self._strings: dict[str, str] = {}  # one copy of each user id and tag
        self._lock = threading.Lock()
        self._queries = self._candidates = self._hits = 0

    def __len__(self) -> int:
        return len(self._user_ids)

    @property
    def entries(self) -> list[DatabaseEntry]:
        """Every stored entry, in insertion order, rebuilt from the columns."""
        with self._lock:
            codes = self._codes[:]  # a copy, which later adds leave alone
        rows = self._row.iter_unpack(codes)
        return [DatabaseEntry(u, r, t) for r, u, t in zip(rows, self._user_ids, self._tags)]

    def stats(self) -> dict[str, int]:
        """Queries answered, candidates verified and hits returned so far."""
        with self._lock:
            return {
                "queries": self._queries,
                "candidates": self._candidates,
                "hits": self._hits,
            }

    def add(self, entry: DatabaseEntry) -> None:
        """Store entry's user id, encoding and tag; any object with those three
        attributes will do, and the index keeps no reference to it."""
        try:
            row = self._row.pack(*entry.encoding)
        except struct.error:
            raise self._unstorable(entry.encoding) from None
        with self._lock:
            eid = len(self._user_ids)
            if eid >= ID_LIMIT:
                raise ValueError(f"index full: entry ids are uint32, at most {ID_LIMIT} entries")
            user_id = self._strings.setdefault(entry.user_id, entry.user_id)
            tag = self._strings.setdefault(entry.tag, entry.tag)
            # the row and columns before the id is published in the tables
            self._codes.frombytes(row)
            self._user_ids.append(user_id)
            self._tags.append(tag)
            packed = eid.to_bytes(4, sys.byteorder)
            for table, s in zip(self._tables, self._slices):
                key = row[s]
                table[key] = table.setdefault(key, b"") + packed

    def _unstorable(self, e: Sequence[int]) -> ValueError:
        """Why `struct` refused to pack e as a row: its length, or the first
        coordinate that is not an integer in [0, CODE_LIMIT)."""
        if len(e) != self.n:
            return ValueError(f"encoding length {len(e)} != index length {self.n}")
        pos = next(i for i, c in enumerate(e) if not _storable(c))
        return ValueError(f"coordinate {e[pos]} at position {pos} is not an integer in [0, {CODE_LIMIT})")

    def key_count(self) -> int:
        """Total stored block keys; always (tau+1) * D."""
        return sum(len(ids) for table in self._tables for ids in table.values()) // 4

    def query(self, e: Sequence[int], tau: int | None = None) -> list[DatabaseEntry]:
        """All entries within distance tau of e, in insertion order; identical
        to scan_match.  e is packed as `add` packs a row, so a query of the
        wrong length, or with a coordinate no row can hold, raises the
        ValueError that `add` raises."""
        if tau is None:
            tau = self.tau
        if tau > self.tau:
            raise ValueError(f"query tau={tau} exceeds build-time tau={self.tau}")
        try:
            row = self._row.pack(*e)
        except struct.error:
            raise self._unstorable(e) from None
        found = b"".join([table.get(row[s], b"") for table, s in zip(self._tables, self._slices)])
        if len(found) < 4 * NUMPY_MIN_CELLS:
            ids = sorted({*memoryview(found).cast("I")}) if found else []
        else:
            ids = np.sort(np.frombuffer(found, dtype=np.uint32)).astype(np.intp)  # i * n fits
            ids = np.concatenate((ids[:1], ids[1:][ids[1:] != ids[:-1]]))
        codes, n, user_ids, tags = self._codes, self.n, self._user_ids, self._tags
        if len(ids) * n < NUMPY_MIN_CELLS:
            hits = []
            for i in ids:
                r = codes[i * n : i * n + n]
                if sum(map(operator.ne, r, e)) <= tau:
                    hits.append(DatabaseEntry(user_ids[i], tuple(r), tags[i]))
        else:
            ids = np.asarray(ids, dtype=np.intp)
            with self._lock:
                rows = np.frombuffer(codes, dtype=np.uint16).reshape(-1, n)[ids]
            far = np.count_nonzero(rows != np.frombuffer(row, dtype=np.uint16), axis=1)
            hits = [
                DatabaseEntry(user_ids[i], tuple(codes[i * n : i * n + n]), tags[i])
                for i in ids[far <= tau].tolist()
            ]
        with self._lock:
            self._queries += 1
            self._candidates += len(ids)
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
            fh.write(f"{entry.user_id}\t{entry.tag}\t{format_encoding(entry.encoding)}\n")


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
            encoding = parse_encoding(coords)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad coordinate list {coords!r}") from None
        entries.append(DatabaseEntry(user_id=user_id, tag=tag, encoding=encoding))
    return entries
