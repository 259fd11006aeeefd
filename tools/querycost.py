"""Time `MatchIndex.query` for three kinds of infected query.

    PYTHONPATH=src python3 tools/querycost.py [--entries D] [--queries Q]
        [--rounds R] [--check C] [--seed S]

It builds one store at each benchmark shape, at that workload's store size
unless `--entries` sets one for all three:

- `sim`: the inflated world, p = 503, n = 20, tau = 4, D = 50,000;
- `row1`: reference row 1, p = 503, n = 100, tau = 20, D = 5,000;
- `row3`: reference row 3, p = 211, n = 200, tau = 40, D = 10,000.

Each stored entry encodes a random point.  The queries come in three kinds,
Q of each:

- `resend`: a stored encoding sent again, as an infected client re-sends
  the records it reported;
- `reencode`: a fresh encoding of a stored point;
- `fresh`: the encoding of a new random point.

Before it times anything, it checks C queries of each kind against
`scan_match` over the stored entries, and exits 1 on a difference.  Then
it times every query R times, the kinds interleaved, one clock pair per
block of 20 queries, and prints per shape and kind the median over the
blocks of the process CPU microseconds of one query and the candidates
verified per query (`stats()["candidates"]`).
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

from tracecloak.encoder import PolyCodeParams, encode, inflate_range_bound
from tracecloak.matcher import DatabaseEntry, build_index, scan_match

SHAPES = {
    "sim": (PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2), 50_000),
    "row1": (PolyCodeParams(M=10**19, p=503, n=100, k=10), 5_000),
    "row3": (PolyCodeParams(M=10**19, p=211, n=200, k=20), 10_000),
}
KINDS = ("resend", "reencode", "fresh")


def build(params: PolyCodeParams, size: int, queries: int, rng: random.Random):
    """A store of `size` random points and `queries` queries of each kind."""
    xs = [rng.randrange(params.M) for _ in range(size)]
    entries = [DatabaseEntry(f"u{rng.randrange(2000)}", encode(x, params, rng)) for x in xs]
    picked = [rng.randrange(size) for _ in range(queries)]
    kinds = {
        "resend": [entries[j].encoding for j in picked],
        "reencode": [encode(xs[j], params, rng) for j in picked],
        "fresh": [encode(rng.randrange(params.M), params, rng) for _ in range(queries)],
    }
    return entries, kinds


BLOCK = 20  # calls timed between one pair of clock reads


def timed(fn, args: list) -> list[float]:
    """The process CPU nanoseconds per call of fn(a), one figure for each
    block of up to BLOCK calls.  A pair of `process_time_ns` reads costs
    about half a microsecond, so the pair brackets a block, not a call."""
    clock = time.process_time_ns
    times = []
    for i in range(0, len(args), BLOCK):
        block = args[i : i + BLOCK]
        t0 = clock()
        for a in block:
            fn(a)
        times.append((clock() - t0) / len(block))
    return times


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--entries", type=int, help="store size at every shape")
    parser.add_argument("--queries", type=int, default=1000, help="per kind")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--check", type=int, default=5, help="queries per kind checked")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    entries = 1 if args.entries is None else args.entries
    if min(entries, args.queries, args.rounds) < 1 or args.check < 0:
        parser.error("--entries, --queries and --rounds must be at least 1, --check at least 0")
    rng = random.Random(args.seed)
    for shape, (params, size) in SHAPES.items():
        size = args.entries or size
        entries, kinds = build(params, size, args.queries, rng)
        index = build_index(entries, params.n, params.tau)
        for kind, queries in kinds.items():
            for q in queries[: args.check]:
                if index.query(q) != scan_match(entries, q, params.tau):
                    print(f"{shape} {kind}: the index differs from scan_match", file=sys.stderr)
                    return 1
        times = {kind: [] for kind in KINDS}
        candidates = dict.fromkeys(KINDS, 0)
        for _ in range(args.rounds):  # the kinds interleaved, so drift hits each alike
            for kind in KINDS:
                before = index.stats()["candidates"]
                times[kind] += timed(index.query, kinds[kind])
                candidates[kind] += index.stats()["candidates"] - before
        for kind in KINDS:
            us = statistics.median(times[kind]) / 1e3
            per_query = candidates[kind] / (args.rounds * len(kinds[kind]))
            print(f"{shape:5} D={size:<6} {kind:9} {us:8.2f} us  {per_query:8.2f} candidates")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
