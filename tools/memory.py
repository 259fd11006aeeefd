"""Measure, with tracemalloc, the memory the protocol path keeps.

    PYTHONPATH=src python3 tools/memory.py [--clients C] [--records R]
        [--entries E] [--agents A] [--rows G] [--epochs T] [--seed S]

Every figure is at the `sim` benchmark workload's parameters (the inflated
world, p = 503, n = 20, k = 2), and the defaults are that workload's shape.
It prints four lines:

- bytes per client record: C `ClientState`s of R records each;
- bytes per index entry: a `MatchIndex` of E entries;
- bytes per trail epoch: what one simulation's trails keep, per agent and
  epoch (A agents on a G x G grid for T epochs);
- the tracemalloc peak of that simulation, in MB; about 6% of the agents
  report an infection, two per epoch from epoch 2T/5 on, as in `sim`.

The encodings are made before tracing starts, and each reading follows a
`gc.collect()`, which also empties the interpreter's free lists: tracemalloc
counts a dead tuple that waits on a free list as live.
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import tracemalloc

from tracecloak.encoder import PolyCodeParams, encode, inflate, inflate_range_bound
from tracecloak.matcher import DatabaseEntry, build_index
from tracecloak.tracing import ClientState, GridSpec, pack, run_simulation

PARAMS = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def client_bytes_per_record(clients: int, records: int, seed: int) -> float:
    """Bytes that `clients` databases of `records` records each keep, per
    record; t is the record's number and the cell is random."""
    grid = GridSpec(rows=100, cols=100, epochs=records)
    rng = random.Random(seed)
    inputs = []
    for _ in range(clients):
        rows = []
        for t in range(records):
            cell = rng.randrange(grid.cells)
            rows.append((t, cell, encode(inflate(pack(t, cell, grid)), PARAMS, rng)))
        inputs.append(rows)
    before = _traced()
    kept = []
    for i, rows in enumerate(inputs):
        client = ClientState(f"u{i}")
        for t, cell, e in rows:
            client.add(t, cell, e)
        kept.append(client)
    return (_traced() - before) / (clients * records)


def index_bytes_per_entry(entries: int, seed: int) -> float:
    """Bytes a `MatchIndex` keeps per entry, users drawn from 2,000."""
    rng = random.Random(seed)
    made = [
        DatabaseEntry(f"u{rng.randrange(2000)}", encode(rng.randrange(PARAMS.M), PARAMS, rng))
        for _ in range(entries)
    ]
    before = _traced()
    index = build_index(made, PARAMS.n, PARAMS.tau)
    used = _traced() - before
    assert len(index) == entries
    return used / entries


def simulation(agents: int, rows: int, epochs: int, seed: int) -> tuple[float, float]:
    """(bytes per trail epoch, peak MB) of one simulation.  The trails'
    bytes are what dropping the result's reference to them frees."""
    grid = GridSpec(rows=rows, cols=rows, epochs=epochs)
    rng = random.Random(seed)
    infected = rng.sample(range(agents), max(1, agents * 6 // 100))
    infections = [
        (f"u{u}", min(epochs - 1, epochs * 2 // 5 + i // 2)) for i, u in enumerate(infected)
    ]
    base = _traced()
    tracemalloc.reset_peak()
    result = run_simulation(
        agents=agents,
        grid=grid,
        params=PARAMS,
        seed=seed,
        infections=infections,
        inflate_world=True,
    )
    peak = tracemalloc.get_traced_memory()[1] - base
    before = _traced()
    result.trajectories = {}
    return (before - _traced()) / (agents * epochs), peak / 1e6


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--clients", type=int, default=40)
    parser.add_argument("--records", type=int, default=50, help="per client")
    parser.add_argument("--entries", type=int, default=10_000)
    parser.add_argument("--agents", type=int, default=1000)
    parser.add_argument("--rows", type=int, default=100, help="grid rows and columns")
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if min(args.clients, args.records, args.entries, args.agents, args.rows, args.epochs) < 1:
        parser.error("every count must be at least 1")
    tracemalloc.start()
    try:
        record = client_bytes_per_record(args.clients, args.records, args.seed)
        entry = index_bytes_per_entry(args.entries, args.seed)
        trail, peak = simulation(args.agents, args.rows, args.epochs, args.seed)
    finally:
        tracemalloc.stop()
    n = PARAMS.n
    print(f"client record  {record:8.1f} B   ({args.clients} x {args.records} records, n = {n})")
    print(f"index entry    {entry:8.1f} B   ({args.entries} entries, n = {n})")
    print(f"trail epoch    {trail:8.1f} B   ({args.agents} agents x {args.epochs} epochs)")
    print(
        f"sim peak       {peak:8.1f} MB  ({args.agents} agents, {args.rows}x{args.rows} grid, "
        f"{args.epochs} epochs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
