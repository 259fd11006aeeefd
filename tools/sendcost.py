"""Time the server's query, the write path and the client tick that feeds
it, layer by layer.

    PYTHONPATH=src python3 tools/sendcost.py [--entries D] [--sends S]
        [--rounds R] [--seed S]

First it times the client half of a `sim` report, on the `sim` workload's
100x100 grid and 50 epochs with its inflated world, S calls a round of
each:

- `walk.sim`: per agent-step, one whole `sim` walk (`tracing._trails`),
  its 1,000 agents from random start cells over the 50 epochs, once a
  round;
- `inflate` of the packed point, the scalar reference;
- `inflate_points.epoch`: per point, `inflate_points` of one `sim` epoch,
  the 1,000 packed points of its 1,000 agents in one batch, once a round;
- `limb_split.epoch`: per point, the limb split of that epoch's inflated
  points (`encoder._digit_quotients`), the step of `sorted_codes` before
  the product, once a round;
- `sorted_code`: the sorted code of one inflated point, a batch of one;
- `sorted_codes.epoch`: per point, `sorted_codes` of that epoch, once a
  round;
- `corrupt` of a sorted code, the scalar reference;
- `corrupt_rows.epoch`: per code, `corrupt_rows` of that epoch's sorted
  rows (`encoder._sorted_rows`), the 1,000 codes in one batch, once a
  round;
- `client.record`: `ClientState.record` of a cell and its packed row
  (`pack_encoding`), the one record path;
- `client_tick`: `client_tick` whole as the simulator calls it, given the
  cell and its packed row: the record and the report.

Then it builds one store at each benchmark shape, at that workload's store
size unless `--entries` sets one for all three, and fills a `ServerState`
with it:

- `sim`: the inflated world, p = 503, n = 20, tau = 4, D = 50,000;
- `row1`: reference row 1, p = 503, n = 100, tau = 20, D = 5,000;
- `row3`: reference row 3, p = 211, n = 200, tau = 40, D = 10,000.

Each stored entry encodes a random point.  Each round first times S
infected queries of each kind on the store as built, the kinds
interleaved, with `MatchIndex.query` alone:

- `query.resend`: a stored encoding sent again, as an infected client
  re-sends the records it reported;
- `query.reencode`: a fresh encoding of a stored point;
- `query.fresh`: the encoding of a new random point.

Then each round times S messages through each write-path layer:

- `format_message` and `parse_message` of an uninfected report;
- `handle.uninfected`: `ServerState.handle` of an uninfected report of a
  new random point, which the store keeps;
- `handle.infected`: `ServerState.handle` of an infected report that
  re-sends a stored encoding by its own reporter, as every infected report
  of the `sim` workload does;
- `add`: `MatchIndex.add` alone, of another uninfected report of a new
  random point;
- `send_report`: `InProcessTransport.send_report` of an uninfected report,
  whole.

It prints per shape and layer the median process CPU microseconds of one
call, each timed in blocks of `BLOCK` calls a clock pair, and for each
query kind the candidates verified per query (`stats()["candidates"]`).

The tool only times: it checks no output.  Its numbers count only on a
commit whose tier-1 tests pass, for those prove what it times:

- every step of the walk moves at most one row and one column and stays
  on the grid, and the nine moves are uniform
  (`tests/test_tracing.py::test_trails_are_king_steps_that_stay_on_the_grid`,
  `test_trail_steps_are_uniform_over_the_nine_moves`);
- `client_tick` records the row it is given and reports its encoding,
  `ClientState.record` keeps every check of `ClientState.add`, and
  `lookup` finds the record
  (`tests/test_tracing.py::test_client_tick_records_and_reports_each_given_encoding`,
  `test_lookup_returns_the_latest_record_of_an_encoding`);
- `inflate_points` equals `inflate`, the limb quotients are the digits
  mod p, and the rows of `sorted_codes` equal `sorted_code`
  (`tests/test_encoder.py::test_inflate_points_equal_inflate`,
  `test_sorted_codes_equal_horner_reference`,
  `test_sorted_codes_equal_the_reference_at_the_edges`,
  `test_sorted_codes_rows_equal_the_scalar_reference`);
- `corrupt_rows` keeps every row sorted and each change in its window,
  with `corrupt`'s distribution
  (`tests/test_encoder.py::test_corrupt_rows_draws_its_stream_and_corrupts_in_order`,
  `test_corrupt_rows_has_the_distribution_of_corrupt`);
- each query kind finds what `scan_match` finds
  (`tests/test_acceptance.py::test_criterion_5_index_oracle_equivalence`,
  `tests/test_matcher.py::test_index_equals_scan_match_property`,
  `test_index_recall_for_reencodings`);
- every message survives the wire
  (`tests/test_tracing.py::test_wire_format_round_trip_property`);
- the alerts are the `scan_match` hits minus the reporter's own, each
  (recipient, encoding) once (`tests/test_server_model.py`, and
  `tests/test_tracing.py::test_uninfected_adds_racing_infected_reports_are_each_seen_whole`).
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

import numpy as np

from tracecloak.encoder import (
    PolyCodeParams,
    _digit_quotients,
    _sorted_rows,
    corrupt,
    corrupt_rows,
    encode,
    inflate,
    inflate_points,
    inflate_range_bound,
    pack_encoding,
    sorted_code,
    sorted_codes,
)
from tracecloak.matcher import DatabaseEntry
from tracecloak.tracing import (
    INFECTED,
    UNINFECTED,
    ClientState,
    GridSpec,
    InProcessTransport,
    ReportMsg,
    ServerState,
    _trails,
    client_tick,
    format_message,
    pack,
    parse_message,
)

CLIENT_LAYERS = (
    "walk.sim",
    "inflate",
    "inflate_points.epoch",
    "limb_split.epoch",
    "sorted_code",
    "sorted_codes.epoch",
    "corrupt",
    "corrupt_rows.epoch",
    "client.record",
    "client_tick",
)
SHAPES = {
    "sim": (PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2), 50_000),
    "row1": (PolyCodeParams(M=10**19, p=503, n=100, k=10), 5_000),
    "row3": (PolyCodeParams(M=10**19, p=211, n=200, k=20), 10_000),
}
KINDS = ("resend", "reencode", "fresh")
LAYERS = ("format_message", "parse_message", "handle.uninfected", "handle.infected", "add", "send_report")
SIM_GRID = GridSpec(rows=100, cols=100, epochs=50)
SIM_AGENTS = 1000  # the agents of `sim`, and so the points of one epoch
BLOCK = 20  # calls timed between one pair of clock reads


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


def client_half(args: argparse.Namespace, rng: random.Random) -> None:
    """Time and print the client layers of a `sim` report.  The walk and
    `corrupt_rows` draw from a numpy `Generator` of the same seed, as the
    simulator's do."""
    params, grid = SHAPES["sim"][0], SIM_GRID
    gen = np.random.default_rng(args.seed)
    count = args.sends * args.rounds
    points = [(rng.randrange(grid.epochs), rng.randrange(grid.cells)) for _ in range(count)]
    starts = [rng.randrange(grid.cells) for _ in range(SIM_AGENTS)]
    packed = [
        [pack(t, rng.randrange(grid.cells), grid) for _ in range(SIM_AGENTS)]
        for t in (rng.randrange(grid.epochs) for _ in range(args.rounds))
    ]
    epochs = [inflate_points(xs) for xs in packed]
    limbs = params.limbs
    rows = [_sorted_rows(ys, params) for ys in epochs]
    inflated = [inflate(pack(t, cell, grid)) for t, cell in points]
    codes = [sorted_code(y, params) for y in inflated]
    encodings = [corrupt(code, params.k, params.alphabet, rng) for code in codes]
    records = [(t, cell, pack_encoding(e)) for (t, cell), e in zip(points, encodings)]
    times = {layer: [] for layer in CLIENT_LAYERS}
    for r in range(args.rounds):  # the layers interleaved, so drift hits each alike
        part = slice(r * args.sends, (r + 1) * args.sends)
        client = ClientState("timed")
        (walk_ns,) = timed(lambda cells: _trails(cells, grid, gen), [starts])
        times["walk.sim"].append(walk_ns / (SIM_AGENTS * grid.epochs))
        times["inflate"] += timed(lambda p: inflate(pack(p[0], p[1], grid)), points[part])
        (epoch_ns,) = timed(inflate_points, [packed[r]])
        times["inflate_points.epoch"].append(epoch_ns / SIM_AGENTS)
        (epoch_ns,) = timed(lambda ys: _digit_quotients(ys, limbs), [epochs[r]])
        times["limb_split.epoch"].append(epoch_ns / SIM_AGENTS)
        times["sorted_code"] += timed(lambda y: sorted_code(y, params), inflated[part])
        (epoch_ns,) = timed(lambda ys: sorted_codes(ys, params), [epochs[r]])
        times["sorted_codes.epoch"].append(epoch_ns / SIM_AGENTS)
        times["corrupt"] += timed(lambda c: corrupt(c, params.k, params.alphabet, rng), codes[part])
        (epoch_ns,) = timed(lambda c: corrupt_rows(c, params.k, params.alphabet, gen), [rows[r]])
        times["corrupt_rows.epoch"].append(epoch_ns / SIM_AGENTS)
        times["client.record"] += timed(lambda rec: client.record(*rec), records[part])
        times["client_tick"] += timed(lambda rec: client_tick(client, *rec), records[part])
    for layer in CLIENT_LAYERS:
        us = statistics.median(times[layer]) / 1e3
        print(f"sim   client   {layer:20} {us:8.2f} us")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--entries", type=int, help="store size at every shape")
    parser.add_argument("--sends", type=int, default=1000, help="calls per layer and round")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    entries = 1 if args.entries is None else args.entries
    if min(entries, args.sends, args.rounds) < 1:
        parser.error("--entries, --sends and --rounds must be at least 1")
    rng = random.Random(args.seed)
    client_half(args, rng)
    count = args.sends * args.rounds
    for shape, (params, size) in SHAPES.items():
        size = args.entries or size
        entries, kinds = build(params, size, count, rng)
        state = ServerState(params.n, params.tau)
        index, transport = state.index, InProcessTransport(state)
        for entry in entries:
            state.handle(ReportMsg(entry.user_id, UNINFECTED, entry.encoding))

        def fresh() -> ReportMsg:
            e = encode(rng.randrange(params.M), params, rng)
            return ReportMsg(f"u{rng.randrange(2000)}", UNINFECTED, e)

        stored = [entries[rng.randrange(size)] for _ in range(count)]
        infected = [ReportMsg(e.user_id, INFECTED, e.encoding) for e in stored]
        kept, added, sent = ([fresh() for _ in range(count)] for _ in range(3))

        times = {layer: [] for layer in KINDS + LAYERS}
        candidates = dict.fromkeys(KINDS, 0)
        for r in range(args.rounds):  # the kinds interleaved, so drift hits each alike
            part = slice(r * args.sends, (r + 1) * args.sends)
            for kind in KINDS:
                before = index.stats()["candidates"]
                times[kind] += timed(index.query, kinds[kind][part])
                candidates[kind] += index.stats()["candidates"] - before
        for kind in KINDS:
            us, per_query = statistics.median(times[kind]) / 1e3, candidates[kind] / count
            print(f"{shape:5} D={size:<6} query.{kind:14} {us:8.2f} us  {per_query:8.2f} candidates")

        for r in range(args.rounds):  # the layers interleaved, so drift hits each alike
            part = slice(r * args.sends, (r + 1) * args.sends)
            lines = [format_message(m) for m in kept[part]]
            times["format_message"] += timed(format_message, kept[part])
            times["parse_message"] += timed(parse_message, lines)
            times["handle.uninfected"] += timed(state.handle, kept[part])
            times["handle.infected"] += timed(state.handle, infected[part])
            times["add"] += timed(index.add, added[part])
            times["send_report"] += timed(transport.send_report, sent[part])
        for layer in LAYERS:
            us = statistics.median(times[layer]) / 1e3
            print(f"{shape:5} D={size:<6} {layer:20} {us:8.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
