"""Hamming-range matching over stored encodings.

`scan_match` is the definitional oracle; `MatchIndex` is the production
structure.  The index splits the n coordinate positions into tau+1 strided
blocks, block b holding the positions i = b (mod tau+1).  Two vectors within
distance tau must agree exactly on at least one block (pigeonhole), so
candidate retrieval by block value followed by full verification returns
exactly the oracle's result set.  Neighbouring coordinates of a sorted
vector are strongly correlated; a strided block samples the whole vector,
so few stored entries share one with a query.

The index holds the only copy of each stored encoding: one row of a flat
`uint16` store, its coordinates in block order, beside columns of user ids
and tags.  Each block has a keyless hash table of `uint32` words with one
slot per distinct block value, and the entries that share a value are
chained.  Each candidate is verified by one count over its whole row, read
as an int of n 16-bit lanes, and a `DatabaseEntry` is built only when one is
returned.
"""

from __future__ import annotations

import itertools
import operator
import struct
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# stored coordinates lie in [0, CODE_LIMIT): uint16 rows, as on the wire
from .encoder import CODE_LIMIT, format_encoding, parse_encoding

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


# The tables and chains hold entry id + 1 in uint32 words, 0 meaning none.
ID_LIMIT = (1 << 32) - 1  # entries at most
FP_MASK = (1 << 30) - 1  # a fingerprint is the low 30 bits of hash(): one int digit
MIN_SLOTS = 8  # per table; a power of two


def _storable(c) -> bool:
    try:
        return 0 <= operator.index(c) < CODE_LIMIT
    except TypeError:
        return False


def _empty_table(slots: int) -> array:
    return array("I", [0]) * (2 * slots)


class MatchIndex:
    """Static Hamming-range index with exact (oracle-equal) query results.

    Storage per entry is one `uint16` row of codes, a user id and tag in
    parallel columns, and one chain word per block; entry ids are insertion
    order.  Adds and queries run under one lock (a query probes and
    verifies under it), so a query sees each add whole; entries are
    append-only.

    No `DatabaseEntry` is stored.  `add` reads the entry's user id, encoding
    and tag and keeps none of its objects but the strings, of which the index
    keeps one copy each, so a user who reports many times costs a pointer
    per report.  A row holds its coordinates in block order, which a
    Hamming distance does not see; a hit's entry is rebuilt from its row in
    the original order, and `entries` rebuilds them all.

    The rows live in one flat `array("H")`, row `eid` at `eid * n`, which
    grows in place with amortised O(1) appends.  A candidate is verified by
    reading its row and the query's as ints of n 16-bit lanes and counting
    the lanes of their XOR that are not 0: `(x & low) + low` sets a lane's
    top bit when its low 15 bits are not all 0, `| x` adds the lane's own
    top bit, and no carry leaves a lane.

    Each block has a keyless open-addressing table, an `array("I")` in which
    slot i holds the chain head's id + 1 at word 2i and a fingerprint of its
    block value at word 2i+1 (after Cleary, "Compact Hash Tables Using
    Bidirectional Linear Probing", 1984).  A probe starts at the slot the
    fingerprint selects and steps linearly.  On a fingerprint match it
    compares the block with the head's row, so two values never share a
    slot, whatever the hash seed, and the candidates are exactly the entries
    that share a block with the query.  An entry whose value is already in
    the table becomes the head, and `_next[eid * (tau+1) + b]` holds the
    previous head, so a repeated value takes one slot and never lengthens
    another value's probe.  `hash()` of bytes is keyed per process, so no
    client can precompute colliding blocks.  The probe loops stay inline in
    `add` and `query`: a call per taken slot would cost more than the probe.

    Every table has at least 2 slots per entry.  When the store passes half
    a table, each table in turn is rebuilt at twice the size with numpy,
    which places the live slots by their home in one pass.  No key is a
    Python object: the tables are a fixed number of arrays, so the cyclic
    collector has no more objects to walk however large the store grows.
    """

    def __init__(self, n: int, tau: int):
        if tau < 0 or n < 1:
            raise ValueError("need n >= 1 and tau >= 0")
        self.n = n
        self.tau = tau
        self.blocks = tuple(tuple(range(b, n, tau + 1)) for b in range(tau + 1))
        perm = [i for block in self.blocks for i in block]
        inverse = sorted(range(n), key=perm.__getitem__)
        # a coordinate sequence into block order and back; an itemgetter of
        # one position returns that coordinate, not a tuple
        self._order = operator.itemgetter(*perm) if n > 1 else tuple
        self._unorder = operator.itemgetter(*inverse) if n > 1 else tuple
        self._row = struct.Struct(f"={n}H")  # its pack range-checks every coordinate
        # 0x7FFF and 0x8000 in each of a row's n 16-bit lanes
        self._low = int.from_bytes(b"\xff\x7f" * n, "little")
        self._top = int.from_bytes(b"\x00\x80" * n, "little")
        # a block-ordered row's bytes, one bytes object per block
        self._keys = struct.Struct("=" + "".join(f"{2 * len(block)}s" for block in self.blocks))
        # where each block starts in a block-ordered row
        self._starts = list(itertools.accumulate(map(len, self.blocks), initial=0))
        self._block_ids = range(tau + 1)
        self._tables = [_empty_table(MIN_SLOTS) for _ in self.blocks]
        self._mask = 2 * MIN_SLOTS - 2  # a fingerprint's home slot starts at word fp & _mask
        self._capacity = MIN_SLOTS // 2  # entries before the tables double
        self._next = array("I")
        self._no_next = bytes(4 * (tau + 1))
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
        unorder = self._unorder
        rows = self._row.iter_unpack(codes)
        return [DatabaseEntry(u, unorder(r), t) for r, u, t in zip(rows, self._user_ids, self._tags)]

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
        row = self._pack(entry.encoding)
        keys = self._keys.unpack(row)
        with self._lock:
            eid = len(self._user_ids)
            if eid >= ID_LIMIT:
                raise ValueError(f"index full: ids are stored as uint32 id + 1, at most {ID_LIMIT} entries")
            if eid >= self._capacity:
                self._grow()
            # the row and columns before the id is published in the tables
            self._codes.frombytes(row)
            self._user_ids.append(self._strings.setdefault(entry.user_id, entry.user_id))
            self._tags.append(self._strings.setdefault(entry.tag, entry.tag))
            self._next.frombytes(self._no_next)
            eid += 1  # as the tables store it
            mask = self._mask
            for b, table, key in zip(self._block_ids, self._tables, keys):
                fp = hash(key) & FP_MASK
                i = fp & mask
                if table[i]:  # the home slot is taken: probe on
                    while head := table[i]:
                        if table[i + 1] == fp:  # compare the head's block
                            o = (head - 1) * self.n
                            if self._codes[o + self._starts[b] : o + self._starts[b + 1]].tobytes() == key:
                                # the value is stored: chain, with this entry as the head
                                self._next[(eid - 1) * len(self.blocks) + b] = head
                                break
                        i = (i + 2) & mask
                table[i] = eid
                table[i + 1] = fp

    def _grow(self) -> None:
        """Double every table, one at a time; the caller holds the lock.

        A slot's two words move as one uint64, which is 0 only in an empty
        slot.  Sorted by home, live slot k goes to max(home_k, slot of k-1 +
        1): one running maximum of home_k - k.  The run that passes the end
        takes the first free slots from the start, in order, as a linear
        probe that wraps would."""
        slots = len(self._tables[0])  # twice the old count: two words a slot
        mask = 2 * slots - 2
        for b, old in enumerate(self._tables):
            pairs = np.frombuffer(old, dtype=np.uint64)  # 0 only in an empty slot
            live = np.flatnonzero(pairs != 0)
            homes = (np.frombuffer(old, dtype=np.uint32)[1::2][live] & mask) >> 1
            # one sort of home << 32 | old slot orders the live slots by home
            by_home = np.sort((homes.astype(np.uint64) << 32) | live.astype(np.uint64))
            live = (by_home & 0xFFFFFFFF).astype(np.intp)
            k = np.arange(len(live))
            at = np.maximum.accumulate((by_home >> 32).astype(np.intp) - k) + k
            fit = int(np.searchsorted(at, slots))
            table = _empty_table(slots)
            new = np.frombuffer(table, dtype=np.uint64)
            new[at[:fit]] = pairs[live[:fit]]
            if fit < len(live):
                new[np.flatnonzero(new == 0)[: len(live) - fit]] = pairs[live[fit:]]
            self._tables[b] = table
        self._mask = mask
        self._capacity = slots // 2

    def _pack(self, e: Sequence[int]) -> bytes:
        """e as a block-ordered row; a ValueError names its wrong length, or
        the first coordinate that is not an integer in [0, CODE_LIMIT)."""
        if len(e) != self.n:
            raise ValueError(f"encoding length {len(e)} != index length {self.n}")
        try:
            return self._row.pack(*self._order(e))
        except struct.error:
            pos = next(i for i, c in enumerate(e) if not _storable(c))
            raise ValueError(f"coordinate {e[pos]} at position {pos} is not an integer in [0, {CODE_LIMIT})") from None

    def key_count(self) -> int:
        """Total stored block keys, counted from the tables and chains: a
        chain of L entries is one live slot and L - 1 links.  Always
        (tau+1) * D."""
        with self._lock:
            heads = sum(np.count_nonzero(np.frombuffer(t, dtype=np.uint32)[::2]) for t in self._tables)
            return int(heads) + int(np.count_nonzero(np.frombuffer(self._next, dtype=np.uint32)))

    def query(self, e: Sequence[int], tau: int | None = None) -> list[DatabaseEntry]:
        """All entries within distance tau of e, in insertion order; identical
        to scan_match.  e is packed as `add` packs a row, so a query of the
        wrong length, or with a coordinate no row can hold, raises the
        ValueError that `add` raises."""
        if tau is None:
            tau = self.tau
        if tau > self.tau:
            raise ValueError(f"query tau={tau} exceeds build-time tau={self.tau}")
        row = self._pack(e)
        keys = self._keys.unpack(row)
        q, low, top, n = int.from_bytes(row, "little"), self._low, self._top, self.n
        found = []  # id + 1 of each entry sharing a block, repeats included
        codes, nxt, starts, stride = self._codes, self._next, self._starts, self.tau + 1
        with self._lock:
            mask = self._mask
            for b, table, key in zip(self._block_ids, self._tables, keys):
                fp = hash(key) & FP_MASK
                i = fp & mask
                while head := table[i]:
                    if table[i + 1] == fp:  # compare the head's block
                        o = (head - 1) * n
                        if codes[o + starts[b] : o + starts[b + 1]].tobytes() == key:
                            while head:
                                found.append(head)
                                head = nxt[(head - 1) * stride + b]
                            break
                    i = (i + 2) & mask
            ids = sorted(set(found))
            user_ids, tags, unorder = self._user_ids, self._tags, self._unorder
            hits = []
            for i in ids:
                o = (i - 1) * n
                r = codes[o : o + n]
                x = int.from_bytes(r, "little") ^ q  # a lane is 0 where r and e agree
                if (((x & low) + low | x) & top).bit_count() <= tau:
                    hits.append(DatabaseEntry(user_ids[i - 1], unorder(r), tags[i - 1]))
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
    """Write entries as `user_id<TAB>tag<TAB>hex-encoding` lines, the
    encoding as `encoder.format_encoding` writes it."""
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
            raise ValueError(f"{path}:{lineno}: not an encoding: {coords!r}") from None
        entries.append(DatabaseEntry(user_id=user_id, tag=tag, encoding=encoding))
    return entries
