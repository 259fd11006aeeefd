import gc
import random
import string
import struct
import sys
import tempfile
import threading
import tracemalloc
import zlib
from array import array
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracecloak import matcher
from tracecloak.encoder import PolyCodeParams, encode, inflate_range_bound
from tracecloak.matcher import (
    CODE_LIMIT,
    DatabaseEntry,
    MatchIndex,
    build_index,
    hamming,
    load_entries,
    save_entries,
    scan_match,
)


def random_entries(rng, count, n, p):
    return [
        DatabaseEntry(
            user_id=f"u{i}",
            encoding=tuple(sorted(rng.randrange(p) for _ in range(n))),
        )
        for i in range(count)
    ]


def test_hamming_examples():
    assert hamming((0, 2, 3, 4, 5), (0, 2, 3, 4, 6)) == 1
    assert hamming((1, 2, 3), (1, 2, 3)) == 0
    assert hamming((0, 0, 0), (1, 1, 1)) == 3
    with pytest.raises(ValueError):
        hamming((1, 2), (1, 2, 3))


@pytest.mark.parametrize("n, tau", [(0, 0), (-1, 2), (3, -1)])
def test_index_refuses_no_positions_or_a_negative_tau(n, tau):
    with pytest.raises(ValueError, match="need n >= 1 and tau >= 0"):
        MatchIndex(n, tau)


def test_scan_match_trivial():
    assert scan_match([], (1, 2, 3), 2) == []
    entry = DatabaseEntry("a", (1, 2, 3))
    assert scan_match([entry], (1, 2, 3), 0) == [entry]
    assert scan_match([entry], (1, 2, 4), 0) == []


def test_scan_match_is_definitional_filter():
    rng = random.Random(0)
    entries = random_entries(rng, 10_000, 8, 17)
    e = tuple(sorted(rng.randrange(17) for _ in range(8)))
    expected = [x for x in entries if sum(a != b for a, b in zip(x.encoding, e)) <= 3]
    assert scan_match(entries, e, 3) == expected


def test_index_query_equals_oracle():
    rng = random.Random(1)
    entries = random_entries(rng, 5000, 8, 17)
    tau = 4
    index = build_index(entries, 8, tau)
    for _ in range(100):
        q = tuple(sorted(rng.randrange(17) for _ in range(8)))
        assert Counter(index.query(q, tau)) == Counter(scan_match(entries, q, tau))
    # smaller query tau also allowed
    for _ in range(20):
        q = tuple(sorted(rng.randrange(17) for _ in range(8)))
        assert Counter(index.query(q, 1)) == Counter(scan_match(entries, q, 1))


def test_index_recall_for_reencodings():
    from tracecloak.encoder import PolyCodeParams, encode

    params = PolyCodeParams(M=10**4, p=31, n=10, k=2)
    rng = random.Random(2)
    index = MatchIndex(params.n, params.tau)
    xs = [rng.randrange(params.M) for _ in range(500)]
    for i, x in enumerate(xs):
        index.add(DatabaseEntry(f"u{i}", encode(x, params, rng)))
    for i, x in enumerate(xs):
        probe = encode(x, params, rng)
        assert f"u{i}" in {entry.user_id for entry in index.query(probe)}


def test_index_empty_and_bounds():
    index = MatchIndex(8, 2)
    assert index.query((0,) * 8) == []
    with pytest.raises(ValueError):
        index.query((0,) * 7)
    with pytest.raises(ValueError):
        index.query((0,) * 8, tau=3)
    with pytest.raises(ValueError):
        index.add(DatabaseEntry("a", (0,) * 7))


def test_index_storage_bound():
    rng = random.Random(3)
    for tau in (0, 2, 4):
        entries = random_entries(rng, 500, 8, 17)
        index = build_index(entries, 8, tau)
        assert index.key_count() == (tau + 1) * len(entries)


def test_index_blocks_cover_positions():
    """Every position lies in exactly one of the tau+1 blocks (block b holds
    the positions i = b mod tau+1), also where blocks outnumber positions."""
    assert MatchIndex(10, 3).blocks == ((0, 4, 8), (1, 5, 9), (2, 6), (3, 7))
    for n, tau in [(10, 3), (1, 0), (3, 5), (20, 4), (200, 40)]:
        blocks = MatchIndex(n, tau).blocks
        assert len(blocks) == tau + 1
        assert sorted(i for block in blocks for i in block) == list(range(n))


def test_duplicates_stored_distinctly():
    index = MatchIndex(3, 0)
    entry = DatabaseEntry("a", (1, 2, 3))
    index.add(entry)
    index.add(entry)
    assert len(index.query((1, 2, 3))) == 2


def test_exact_lookup():
    rng = random.Random(4)
    entries = random_entries(rng, 10_000, 6, 7)
    index = build_index(entries, 6, 0)
    for _ in range(200):
        q = rng.choice(entries).encoding
        assert Counter(index.query(q)) == Counter(scan_match(entries, q, 0))
    absent = (6, 6, 6, 6, 6, 99)
    assert index.query(absent) == []
    single = build_index([DatabaseEntry("x", (1, 2))], 2, 0)
    assert single.query((1, 2)) == [DatabaseEntry("x", (1, 2))]


def test_add_rejects_out_of_range_coordinates():
    index = MatchIndex(4, 1)
    with pytest.raises(ValueError, match="position 2"):
        index.add(DatabaseEntry("a", (0, 1, CODE_LIMIT, 3)))
    with pytest.raises(ValueError, match="position 0"):
        index.add(DatabaseEntry("a", (-1, 1, 2, 3)))
    with pytest.raises(ValueError, match="position 3"):
        index.add(DatabaseEntry("a", (0, 1, 2, np.int64(-1))))
    with pytest.raises(ValueError, match="position 1"):
        index.add(DatabaseEntry("a", (0, 1.0, 2, 3)))
    assert len(index) == 0
    stored = (0, 1, 2, CODE_LIMIT - 1)
    index.add(DatabaseEntry("a", stored))
    assert index.query(stored, 0) == index.entries
    # a block-order itemgetter takes the first n coordinates of a longer tuple
    keys, longer = index.key_count(), stored + (5,)
    for call in (lambda: index.add(DatabaseEntry("b", longer)), lambda: index.query(longer)):
        with pytest.raises(ValueError, match="^encoding length 5 != index length 4$"):
            call()
    assert (len(index), index.key_count()) == (1, keys)


def test_add_refuses_ids_past_uint32():
    """The tables and chains hold id + 1 as uint32, 0 meaning none: the
    (2**32 - 1)th entry is refused with a ValueError, which the TCP handler
    answers, not an OverflowError, and nothing of it is stored."""

    class Full(list):
        def __len__(self):
            return matcher.ID_LIMIT

    assert matcher.ID_LIMIT == 2**32 - 1
    index = MatchIndex(2, 1)
    index._user_ids = Full()
    with pytest.raises(ValueError, match=f"at most {2**32 - 1} entries"):
        index.add(DatabaseEntry("a", (1, 2)))
    assert len(index._codes) == 0
    assert len(index._next) == 0
    assert not any(any(table) for table in index._tables)
    assert index._tags == []


@pytest.mark.parametrize(
    "refused",
    [DatabaseEntry(["x"], (4, 5, 6)), DatabaseEntry("x", (4, 5, 6), tag=["infected"])],
    ids=["user_id", "tag"],
)
def test_a_refused_add_leaves_no_row_behind(refused):
    """A user id or tag that cannot be a dict key is a TypeError before the
    row is kept, so the entries after it keep their own rows."""
    index = MatchIndex(3, 1)
    a, b = DatabaseEntry("a", (1, 2, 3)), DatabaseEntry("b", (7, 8, 9))
    index.add(a)
    before = (len(index), bytes(index._codes), index.key_count(), index.stats())
    with pytest.raises(TypeError, match="unhashable"):
        index.add(refused)
    assert (len(index), bytes(index._codes), index.key_count(), index.stats()) == before
    index.add(b)
    assert index.entries == [a, b]
    assert index.query((7, 8, 9)) == [b]


def test_tables_are_not_tracked_by_the_cyclic_collector():
    """A row-3 store gives the collector no more objects to walk however
    large it grows: entries made for the adds die with them, no key is an
    object, and each doubling replaces a block's table array with another."""
    rng = random.Random(6)
    encodings = [tuple(sorted(rng.randrange(211) for _ in range(200))) for _ in range(2000)]
    index = MatchIndex(200, 40)
    gc.collect()
    before = len(gc.get_objects())
    arrays = sum(isinstance(o, array) for o in gc.get_objects())
    for i, enc in enumerate(encodings):
        index.add(DatabaseEntry(f"u{i}", enc))
    gc.collect()
    assert len(gc.get_objects()) - before < 10
    assert sum(isinstance(o, array) for o in gc.get_objects()) == arrays
    assert len(index._tables[0]) > 2 * matcher.MIN_SLOTS  # the tables did double
    assert not gc.is_tracked(index._strings)
    assert DatabaseEntry("u7", encodings[7]) in index.query(encodings[7], 0)


def test_add_keeps_no_reference_to_its_input():
    index = MatchIndex(4, 1)
    index.add(DatabaseEntry("u0", (9, 9, 9, 9)))
    entry = DatabaseEntry("u1", (0, 1, 2, 3))
    before = sys.getrefcount(entry), sys.getrefcount(entry.encoding)
    index.add(entry)
    assert (sys.getrefcount(entry), sys.getrefcount(entry.encoding)) == before
    assert index.entries == [DatabaseEntry("u0", (9, 9, 9, 9)), entry]


def test_index_keeps_one_copy_of_each_string():
    index = MatchIndex(2, 0)
    for i in range(4):
        index.add(DatabaseEntry("".join(["u", "1"]), (i, i), "".join(["un", "infected"])))
    assert len({id(u) for u in index._user_ids}) == 1
    assert len({id(t) for t in index._tags}) == 1
    assert index._strings == {"u1": "u1", "uninfected": "uninfected"}


def test_stats_count_queries_candidates_and_hits():
    index = MatchIndex(4, 1)  # blocks (0, 2) and (1, 3)
    # the second shares block (0, 2) with the first query, the third (1, 3)
    for enc in [(0, 0, 0, 0), (0, 1, 0, 1), (5, 0, 5, 0), (9, 9, 9, 9)]:
        index.add(DatabaseEntry("a", enc))
    assert index.stats() == {"queries": 0, "candidates": 0, "hits": 0}
    assert [e.encoding for e in index.query((0, 0, 0, 0))] == [(0, 0, 0, 0)]
    assert index.query((7, 7, 7, 7)) == []
    assert index.stats() == {"queries": 2, "candidates": 3, "hits": 1}


def _live_slots(table) -> int:
    return int(np.count_nonzero(np.frombuffer(table, dtype=np.uint32)[::2]))


def _fingerprint(index, e, b) -> int:
    """The fingerprint under which the index files block b of encoding e."""
    block = index.blocks[b]
    return hash(struct.pack(f"={len(block)}H", *(e[i] for i in block))) & matcher.FP_MASK


def _sharing(index, encodings, q) -> int:
    """How many of the encodings share a block fingerprint with q: the
    candidates that a query of q collects."""
    blocks = range(len(index.blocks))
    fps = [_fingerprint(index, q, b) for b in blocks]
    return sum(any(_fingerprint(index, e, b) == fps[b] for b in blocks) for e in encodings)


def test_a_repeated_block_value_takes_one_slot():
    """10^4 entries sharing block (0, 2) chain behind one slot of its table,
    so a query that shares no block fingerprint with them collects no
    candidate.  The 10^4 distinct values of block (1, 3) take one slot per
    distinct fingerprint, which under the real hash may be fewer."""
    index = MatchIndex(4, 1)  # blocks (0, 2) and (1, 3)
    encodings = [(7, i, 7, i) for i in range(10_000)]
    for i, e in enumerate(encodings):
        index.add(DatabaseEntry(f"u{i}", e))
    assert _live_slots(index._tables[0]) == 1
    assert _live_slots(index._tables[1]) == len({_fingerprint(index, e, 1) for e in encodings})
    assert index.key_count() == 2 * 10_000
    assert index.query((8, 20_000, 8, 20_000)) == []
    assert index.stats()["candidates"] == _sharing(index, encodings, (8, 20_000, 8, 20_000))
    # a query that shares the block collects the whole chain
    before = index.stats()["candidates"]
    assert index.query((7, 20_000, 7, 20_000)) == []
    assert index.stats()["candidates"] - before == _sharing(index, encodings, (7, 20_000, 7, 20_000))
    assert index.query((7, 5, 7, 5)) == [DatabaseEntry("u5", (7, 5, 7, 5))]


def test_values_on_one_fingerprint_share_one_slot_and_one_chain():
    """Distinct block values whose fingerprints are equal are not told apart:
    they take one slot and one chain, a query collects the whole chain, and
    verification alone decides what it returns."""
    rng = random.Random(7)
    entries = random_entries(rng, 60, 4, 5)
    with mock.patch.object(matcher, "hash", lambda key: 12345, create=True):
        index = build_index(entries, 4, 1)  # blocks (0, 2) and (1, 3)
        assert [_live_slots(table) for table in index._tables] == [1, 1]
        assert index.key_count() == 2 * len(entries)
        hits = 0
        for j in range(40):
            q = entries[j].encoding if j % 2 else tuple(sorted(rng.randrange(5) for _ in range(4)))
            before = index.stats()["candidates"]
            got = index.query(q)
            assert got == scan_match(entries, q, 1)
            assert index.stats()["candidates"] - before == len(entries)
            hits += len(got)
    assert hits >= 20


def test_every_entry_is_found_after_each_doubling():
    """A store at n = 2 doubles its tables six times.  The first values and
    every fifth one hash to distinct fingerprints whose low 15 bits are all
    set, so their home is the last slot at every size: a run of them passes
    the end of each table and wraps to its first slots.  After each
    doubling, every stored entry comes back from an exact query as its one
    candidate, and each table keeps 2 slots per entry."""
    wrapped = {v for v in range(401) if v % 5 == 0 or v < 8}
    last_home = {matcher.FP_MASK ^ (v << 15) for v in wrapped}

    def skewed_hash(key):
        (v,) = struct.unpack("=H", key)
        return matcher.FP_MASK ^ (v << 15) if v in wrapped else zlib.crc32(key)

    index = MatchIndex(2, 1)  # blocks (0,) and (1,)
    entries = []
    doublings = 0
    with mock.patch.object(matcher, "hash", skewed_hash, create=True):
        for v in range(400):
            words = len(index._tables[0])
            entries.append(DatabaseEntry(f"u{v}", (v, v + 1)))
            index.add(entries[-1])
            if len(index._tables[0]) == words:
                continue
            doublings += 1
            for table in index._tables:
                assert len(table) // 2 >= 2 * len(index)
                assert table[1] in last_home  # slot 0 holds a wrapped value
            before = index.stats()["candidates"]
            for entry in entries:
                assert index.query(entry.encoding, 0) == [entry]
            # one home, different fingerprints: no query collects another's
            assert index.stats()["candidates"] - before == len(entries)
    assert doublings >= 4
    assert index.entries == entries


# real encodings at reference row 3 (n = 200, tau = 40) and at the
# simulator's shape (n = 20, tau = 4), made once for the guards below
_ROW3 = PolyCodeParams(M=10**19, p=211, n=200, k=20)
_SIM = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)


def _store(params, size, seed):
    rng = random.Random(seed)
    xs = [rng.randrange(params.M) for _ in range(size)]
    entries = [DatabaseEntry(f"u{rng.randrange(2000)}", encode(x, params, rng)) for x in xs]
    return xs, entries, rng


@pytest.fixture(scope="module")
def row3_store():
    return _store(_ROW3, 2000, 12)


def test_row3_queries_collect_few_candidates(row3_store):
    """Strided blocks keep a row-3 query to a few candidates: half the
    queries re-encode a stored point, half are fresh points."""
    xs, entries, rng = row3_store
    index = build_index(entries, _ROW3.n, _ROW3.tau)
    for j in range(200):
        x = xs[j] if j % 2 == 0 else rng.randrange(_ROW3.M)
        index.query(encode(x, _ROW3, rng))
    stats = index.stats()
    assert stats["hits"] >= 100
    assert stats["candidates"] / stats["queries"] <= 3


def _index_bytes_per_entry(params, entries) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = build_index(entries, params.n, params.tau)
        gc.collect()  # dead tuples on the free list would count as live
        return (tracemalloc.get_traced_memory()[0] - before) / len(index)
    finally:
        tracemalloc.stop()


def test_index_memory_per_entry(row3_store):
    """No key is a Python object (tracemalloc, entries made beforehand, 2,000
    users).  One dict per block took 3,272 B per entry at 2,000 row-3
    entries and 453 B at 10^4 simulator entries; keyless tables take about
    1,301 and 215 B (1,306 and 256 without the last gc.collect(), which
    frees the dead 20-tuples that `_order` leaves on the tuple free list).
    An int of at least 28 B per key, 41 or 5 keys per entry, would cross
    either bound."""
    assert _index_bytes_per_entry(_ROW3, row3_store[1]) < 2061
    assert _index_bytes_per_entry(_SIM, _store(_SIM, 10_000, 13)[1]) < 380


# mostly a tiny alphabet, so candidate sets are large, and a wider one, so
# they also skip ids; the other values differ from a neighbour only in the
# high byte or only in bit 15 of a 16-bit lane, and the top one pins the edge
_stored = st.one_of(
    st.integers(0, 2),
    st.integers(0, 30),
    st.sampled_from([0x0100, 0x7FFF, 0x8000, 0xFF00]),
    st.just(CODE_LIMIT - 1),
)
# queries also carry values no stored row can hold, which the index refuses
_probe = st.one_of(
    _stored, st.integers(-3, -1), st.integers(CODE_LIMIT, CODE_LIMIT + 2), st.just(2**70)
)


@st.composite
def _index_cases(draw):
    n = draw(st.integers(1, 10))
    tau = draw(st.integers(0, n + 1))
    code = st.tuples(*[_stored] * n)
    pool = draw(st.lists(code, min_size=1, max_size=6))
    # few users, so ids repeat, and both tags
    entry = st.builds(
        DatabaseEntry,
        user_id=st.sampled_from(["u0", "u1", "u2", "uninfected"]),
        encoding=st.one_of(code, st.sampled_from(pool)),
        tag=st.sampled_from(["uninfected", "infected"]),
    )
    store = draw(st.lists(entry, max_size=80))
    queries = draw(
        st.lists(st.one_of(st.sampled_from(pool), st.tuples(*[_probe] * n)), min_size=1, max_size=4)
    )
    query_tau = draw(st.integers(0, tau))
    return n, tau, store, queries, query_tau


@settings(max_examples=150, deadline=None)
@given(_index_cases())
def test_index_equals_scan_match_property(case):
    n, tau, entries, queries, query_tau = case
    index = build_index(entries, n, tau)
    assert index.entries == entries
    for q in queries:
        if all(0 <= c < CODE_LIMIT for c in q):
            assert index.query(q, query_tau) == scan_match(entries, q, query_tau)
            assert index.query(q) == scan_match(entries, q, tau)
            continue
        pos = next(i for i, c in enumerate(q) if not 0 <= c < CODE_LIMIT)
        before = index.stats()
        for args in ((q, query_tau), (q,)):
            with pytest.raises(ValueError, match=f"at position {pos} is not"):
                index.query(*args)
        assert index.stats() == before
    bad = entries[0].encoding if entries else (0,) * n
    for value in (-1, CODE_LIMIT, 2**70):
        with pytest.raises(ValueError):
            index.add(DatabaseEntry("bad", (value,) + tuple(bad[1:])))
    assert len(index) == len(entries)
    assert index.entries == entries
    assert "bad" not in index._strings


@settings(max_examples=150, deadline=None)
@given(_index_cases())
def test_index_equals_scan_match_under_four_fingerprints(case):
    """With hash() giving at most 4 fingerprints, most block values share one
    with other values, and results still equal scan_match's."""
    n, tau, entries, queries, query_tau = case
    with mock.patch.object(matcher, "hash", lambda key: zlib.crc32(key) % 4, create=True):
        index = build_index(entries, n, tau)
        assert index.key_count() == (tau + 1) * len(entries)
        for q in queries:
            if all(0 <= c < CODE_LIMIT for c in q):
                assert index.query(q, query_tau) == scan_match(entries, q, query_tau)
                assert index.query(q) == scan_match(entries, q, tau)


# one coordinate's XOR: only the high byte, only bit 15, only bit 0, every bit
_LANE_DIFFS = (0x0100, 0xFF00, 0x8000, 0x0001, 0xFFFF)


@pytest.mark.parametrize("row", [(0x0000,), (0xFFFF,), (0xFFFF, 0x0000, 0xFFFF), (0x0000, 0xFFFF, 0x0000)])
def test_a_lane_that_differs_in_any_bit_counts_once(row):
    """A candidate's distance is counted over 16-bit lanes of one int.  A
    query that differs from the stored row in one coordinate, whichever of
    its bits differ and beside lanes of 0xFFFF and 0x0000, is a miss at tau 0
    and a hit at tau 1; one that differs in two coordinates is a miss at
    tau 1.  Every query here verifies the stored row as its one candidate:
    at n = 1 the second block is empty, so every entry shares it."""
    n = len(row)
    index = MatchIndex(n, 1)  # blocks (0,) and () at n = 1, (0, 2) and (1,) at n = 3
    stored = DatabaseEntry("u", row)
    index.add(stored)
    for tau in (0, 1):
        assert index.query(row, tau) == [stored]
    for d in _LANE_DIFFS:
        for pos in range(n):
            q = row[:pos] + (row[pos] ^ d,) + row[pos + 1 :]
            assert index.query(q, 0) == []
            assert index.query(q, 1) == [stored]
        if n == 3:  # lanes 0 and 2 differ, and block (1,) is shared
            for other in _LANE_DIFFS:
                q = (row[0] ^ d, row[1], row[2] ^ other)
                assert index.query(q, 1) == []
    stats = index.stats()
    assert stats["candidates"] == stats["queries"]
    assert stats["hits"] == 2 + len(_LANE_DIFFS) * n


def test_query_verifies_entries_added_while_it_collects_candidates():
    """Adds that land while a query waits for the lock under which it probes
    and verifies: the query must probe the tables as those adds left them
    (they double six times here), not as it found them when it started, and
    verify against a store that holds their rows."""
    index = MatchIndex(2, 1)  # blocks (0,) and (1,)

    class AddsBeforeLock:
        def __init__(self, lock):
            self.lock, self.armed = lock, False

        def __enter__(self):
            if self.armed:  # the query's; the adds' own pass through
                self.armed = False
                while len(index) < 300:
                    index.add(DatabaseEntry(f"u{len(index)}", (len(index), 1)))
            return self.lock.__enter__()

        def __exit__(self, *exc):
            return self.lock.__exit__(*exc)

    index._lock = AddsBeforeLock(index._lock)
    index._lock.armed = True
    got = index.query((0, 1))
    assert len(got) == 300
    assert got == scan_match(index.entries, (0, 1), 1) == index.entries


def test_queries_racing_adds_see_every_added_entry():
    """Queries racing adds that grow the code store."""
    encodings = [(i % 3, 0, i, i + 1) for i in range(3000)]
    index = MatchIndex(4, 1)
    failures: list = []
    added = [0]  # entries whose add has returned
    done = threading.Event()

    def writer():
        try:
            for i, enc in enumerate(encodings):
                index.add(DatabaseEntry(f"u{i}", enc))
                added[0] = i + 1
        except Exception as exc:
            failures.append(exc)
        finally:
            done.set()

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not done.is_set():
                if added[0]:
                    i = rng.randrange(added[0])
                    if DatabaseEntry(f"u{i}", encodings[i]) not in index.query(encodings[i], 0):
                        failures.append(i)
        except Exception as exc:  # recorded, so the main thread sees it
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(s,), daemon=True) for s in range(3)]
        threads.append(threading.Thread(target=writer, daemon=True))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(index) == len(encodings)


def test_save_load_round_trip(tmp_path):
    rng = random.Random(5)
    entries = random_entries(rng, 50, 5, 17)
    path = tmp_path / "db.tsv"
    save_entries(entries, path)
    loaded = load_entries(path)
    assert [(e.user_id, e.tag, e.encoding) for e in loaded] == [
        (e.user_id, e.tag, e.encoding) for e in entries
    ]


# any character, but often one a line cannot carry: a tab, a separator that
# `str.splitlines` splits at, or a lone surrogate, which UTF-8 cannot encode
_field = st.text(
    st.one_of(st.characters(), st.sampled_from("\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ud800")),
    max_size=5,
)
_coords = st.one_of(st.integers(0, CODE_LIMIT - 1), st.sampled_from([-1, CODE_LIMIT]))
_entries = st.lists(
    st.builds(
        DatabaseEntry,
        user_id=_field,
        encoding=st.lists(_coords, max_size=4).map(tuple),
        tag=_field,
    ),
    max_size=4,
)
_PLAIN = set(string.ascii_letters + string.digits + " -_.")


@settings(max_examples=300, deadline=None)
@given(_entries)
@example([DatabaseEntry("u\x85", (1,))])
@example([DatabaseEntry("u1", (1,), tag="un\u2028infected")])
@example([DatabaseEntry("\u00e9\u4e2d", (1, 2)), DatabaseEntry("u1", (3,), tag="\r")])
def test_save_entries_writes_only_what_loads_back(entries):
    """What save_entries accepts loads back equal; what it refuses names the
    entry and leaves no file.  Plain entries are always accepted."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "db.tsv"
        try:
            save_entries(entries, path)
        except ValueError as exc:
            assert str(exc).startswith("entry ")
            assert not path.exists()
            assert not all(
                set(e.user_id + e.tag) <= _PLAIN
                and e.encoding
                and all(0 <= c < CODE_LIMIT for c in e.encoding)
                for e in entries
            )
        else:
            assert load_entries(path) == entries


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only_two_fields\t1,2,3\n")
    with pytest.raises(ValueError):
        load_entries(path)
    path.write_text("u1\tuninfected\t000100020003\n\nu2\tuninfected\t1,2,3\n")
    with pytest.raises(ValueError, match=r"bad\.tsv:3: not an encoding: '1,2,3'"):
        load_entries(path)
