"""The three protocol-path workloads.

Each workload makes its inputs from the seed alone and drives the program in
a closed loop with a single caller:

* `sim` runs `tracing.run_simulation` end to end over the in-process
  transport (mostly writes: encode, wire round trip, `MatchIndex.add`);
* `row3_mixed` sends pre-encoded reports through `InProcessTransport` to a
  store at reference row 3, where every infected query verifies hundreds of
  candidates;
* `tcp_row1` sends reports one connection each to the threaded
  `SocketServer` on 127.0.0.1, with a selective store at reference row 1.

A run repeats one fixed round of work until `--seconds` have passed: one
whole simulation, or the whole report stream sent to a freshly preloaded
store.  The rounds of a store workload are the same work, so the store
sizes a query meets do not depend on how fast the host or the program is;
the simulations of `sim` differ only in their seed.

Every time is CPU time corrected for the host's speed by a `meter.Meter`,
which interleaves the work with a fixed reference computation.

Calls into the package go through module attributes (`encoder.encode`,
`tracing.run_simulation`, ...) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import random
import resource
import threading
from array import array
from dataclasses import dataclass, field
from time import perf_counter_ns, process_time_ns, thread_time_ns
from typing import Callable

import numpy as np

from tracecloak import encoder, tracing
from tracecloak.encoder import PolyCodeParams, format_encoding
from tracecloak.tracing import INFECTED, UNINFECTED, GridSpec, ReportMsg

import gate
from meter import HammingReference, LoopbackReference, Meter, python_reference

MIN_SAMPLES = 1000  # per percentile and round: p99 needs ten samples beyond it


@dataclass
class Run:
    """What the timed rounds did, as the client saw it."""

    wall_s: float = 0.0
    cpu_s: float = 0.0  # as measured
    scaled_s: float = 0.0  # corrected for the host's speed
    slowdowns: list = field(default_factory=list)  # one per meter
    rounds: int = 0
    # per-report corrected CPU time, ns: infected and uninfected
    query_ns: array = field(default_factory=lambda: array("d"))
    report_ns: array = field(default_factory=lambda: array("d"))
    failed: int = 0
    first_error: str = ""
    counts: dict = field(default_factory=dict)  # of the first round, exact
    alert_digest: str = ""
    peak_rss_mb: float = 0.0  # after the first round
    errors: list = field(default_factory=list)  # later rounds that differ

    @property
    def attempted(self) -> int:
        return len(self.query_ns) + len(self.report_ns) + self.failed

    def add(self, meter: Meter, infected: array, wall_ns: int) -> None:
        """Take in a stopped meter; `infected` flags its samples in order."""
        self.wall_s += wall_ns / 1e9
        self.cpu_s += meter.raw_ns / 1e9
        self.scaled_s += meter.scaled_ns / 1e9
        self.slowdowns.append(meter.slowdown)
        samples = np.asarray(meter.scaled_samples())
        flags = np.frombuffer(infected, dtype=np.int8).astype(bool)
        self.query_ns.extend(samples[flags])
        self.report_ns.extend(samples[~flags])

    def end_round(self, counts: dict, alert_digest: str, repeat: bool) -> None:
        """Keep the first round's counts and digest; with `repeat`, later
        rounds must match them."""
        if not self.rounds:
            self.counts, self.alert_digest = counts, alert_digest
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif repeat and (counts, alert_digest) != (self.counts, self.alert_digest):
            self.errors.append(f"round {self.rounds} differs from round 0: {counts}")
        self.rounds += 1


# ---------------------------------------------------------------------------
# sim


class Sim:
    """Whole-simulator throughput on the inflated world.

    1000 agents walk a 100x100 grid for 50 epochs; 60 of them report an
    infection, two per epoch from epoch 20 on, and re-send their whole
    trail, so about 4% of reports (2130) are infected queries.
    """

    name = "sim"
    agents = 1000
    infected = 60
    first_infection = 20
    setup_repeats = 21  # set-up takes microseconds

    def setup(self, seed: int, tick: Callable[[], None], tracer=None) -> dict:
        grid = GridSpec(rows=100, cols=100, epochs=50)
        params = PolyCodeParams(M=encoder.inflate_range_bound(), p=503, n=20, k=2)
        rng = random.Random(seed)
        users = rng.sample(range(self.agents), self.infected)
        infections = [
            (f"u{u}", self.first_infection + i // 2) for i, u in enumerate(users)
        ]
        digest = hashlib.sha256(
            repr((self.agents, grid, params, infections, seed)).encode()
        ).hexdigest()
        return {
            "grid": grid,
            "params": params,
            "infections": infections,
            "seed": seed,
            "input_digest": digest,
        }

    def run(self, state: dict, seconds: float, tracer=None, fixed: bool = False) -> Run:
        """Run simulations of the same size, each with its own seed, until
        `seconds` have passed (one, with `fixed`); gate each one untimed."""
        run = Run()
        state["errors"] = []
        original = tracing.InProcessTransport.send_report
        reference = python_reference
        if tracer is not None:  # keep it out of run_simulation's self time
            reference = tracer.span("meter.reference", reference)

        while True:
            meter, infected = Meter(reference=reference), array("b")

            def timed_send(transport, msg):
                meter.tick()
                t0 = thread_time_ns()
                out = original(transport, msg)
                meter.sample(thread_time_ns() - t0)
                infected.append(msg.tag == INFECTED)
                return out

            tracing.InProcessTransport.send_report = timed_send
            try:
                w0 = perf_counter_ns()
                meter.start()
                result = tracing.run_simulation(
                    agents=self.agents,
                    grid=state["grid"],
                    params=state["params"],
                    seed=state["seed"] * 1000 + run.rounds,
                    infections=state["infections"],
                    inflate_world=True,
                )
                meter.stop()
                run.add(meter, infected, perf_counter_ns() - w0)
            finally:
                tracing.InProcessTransport.send_report = original
            state["errors"] += gate.check_simulation(result, state["infections"])
            counts = {
                "reports": len(result.server.index) + len(result.server.infected_log),
                "infected_reports": len(result.server.infected_log),
                "store_size": len(result.server.index),
                "contacts": len(result.contacts),
                "alerts": len(result.recovered),
            }
            digest = hashlib.sha256(repr(result.recovered).encode()).hexdigest()
            run.end_round(counts, digest, repeat=False)
            if fixed or run.wall_s >= seconds:
                break
        return run

    def check(self, state: dict, run: Run) -> list[str]:
        return state["errors"] + run.errors


# ---------------------------------------------------------------------------
# row3_mixed and tcp_row1: a preloaded store and a stream of reports


@dataclass
class StoreInputs:
    preload: list[tuple[str, tuple[int, ...]]]
    stream: list[ReportMsg]
    digest: str


class StoreWorkload:
    """A store preloaded with uninfected encodings, then a report stream.

    The preload holds `contacts` points encoded by two users each (the
    owner and a contact) and single points for the rest.  In the stream,
    every `infected_every`-th report is infected; these alternate between a
    fresh encoding of a contact point, reported by the contact (a true hit
    on the owner's entry plus a skipped self hit), and a fresh random point
    (a miss).  Contact points are drawn with replacement, so repeats
    exercise alert dedupe.  Every encoding is made here, during set-up.
    """

    users = 2000
    contacts = 500
    setup_repeats = 3

    def __init__(self, name, params, preload, stream, infected_every, tcp):
        self.name = name
        self.params = params
        self.preload_size = preload
        self.stream_size = stream
        self.infected_every = infected_every
        self.tcp = tcp

    def generate(self, seed: int, tick: Callable[[], None]) -> StoreInputs:
        rng = random.Random(seed)
        P = self.params

        def encode(x):
            tick()
            return encoder.encode(x, P, rng)

        def user():
            return f"u{rng.randrange(self.users)}"

        preload = []
        contact_points = []
        for _ in range(self.contacts):
            x = rng.randrange(P.M)
            owner, contact = (f"u{u}" for u in rng.sample(range(self.users), 2))
            preload += [(owner, encode(x)), (contact, encode(x))]
            contact_points.append((x, contact))
        for _ in range(self.preload_size - len(preload)):
            preload.append((user(), encode(rng.randrange(P.M))))
        rng.shuffle(preload)

        stream = []
        for j in range(self.stream_size):
            if j % self.infected_every < self.infected_every - 1:
                stream.append(ReportMsg(user(), UNINFECTED, encode(rng.randrange(P.M))))
            elif (j // self.infected_every) % 2 == 0:
                x, contact = rng.choice(contact_points)
                stream.append(ReportMsg(contact, INFECTED, encode(x)))
            else:
                stream.append(ReportMsg(user(), INFECTED, encode(rng.randrange(P.M))))

        h = hashlib.sha256()
        for u, e in preload:
            h.update(f"{u}\t{format_encoding(e)}\n".encode())
        for m in stream:
            h.update(f"{m.user_id}\t{m.tag}\t{format_encoding(m.encoding)}\n".encode())
        return StoreInputs(preload, stream, h.hexdigest())

    def preload(self, inputs: StoreInputs, tracer=None, tick=lambda: None) -> tracing.ServerState:
        server = tracing.ServerState(n=self.params.n, tau=self.params.tau)
        for user, e in inputs.preload:
            tick()
            if tracer is not None:
                tracer.begin_report()
            server.handle(ReportMsg(user, UNINFECTED, e))
        return server

    def setup(self, seed: int, tick: Callable[[], None], tracer=None) -> dict:
        inputs = self.generate(seed, tick)
        server = self.preload(inputs, tracer, tick)
        return {"inputs": inputs, "server": server, "input_digest": inputs.digest}

    def run(self, state: dict, seconds: float, tracer=None, fixed: bool = False) -> Run:
        """Send the whole stream, in order, to a freshly preloaded store until
        `seconds` have passed (once, with `fixed`).  The set-up's store takes
        the first round, which is gated; the rest must repeat it."""
        inputs = state["inputs"]
        run = Run()
        reference = None if self.tcp else HammingReference()
        while True:
            server = state["server"] if not run.rounds else self.preload(inputs)
            if self.tcp:
                alerts = self._round_tcp(server, inputs.stream, run, tracer)
            else:
                transport = tracing.InProcessTransport(server)
                meter = Meter(reference=reference)
                alerts = closed_loop(transport.send_report, inputs.stream, run, meter, tracer)
            processed = list(zip(inputs.stream, alerts))
            if not run.rounds:
                state["processed"] = processed
            run.end_round(*_store_counts(processed, server), repeat=True)
            if fixed or run.wall_s >= seconds:
                break
        return run

    def _round_tcp(self, server, stream, run, tracer):
        tcp = tracing.SocketServer(("127.0.0.1", 0), server)
        thread = threading.Thread(target=tcp.serve_forever, kwargs={"poll_interval": 0.05})
        thread.start()
        handled_before = _handle_ns(tracer)
        reference = LoopbackReference()
        try:
            return closed_loop(
                lambda msg: tracing.send_report_over_socket(tcp.server_address, msg),
                stream,
                run,
                Meter(process_time_ns, reference),
                tracer,
            )
        finally:
            reference.close()
            tcp.shutdown()
            tcp.server_close()
            thread.join()
            # handler threads are daemons the server does not track
            for other in threading.enumerate():
                if other is not threading.current_thread():
                    other.join(timeout=10)
            if tracer is not None:
                tracer.tcp_handle_ns += _handle_ns(tracer) - handled_before

    def check(self, state: dict, run: Run) -> list[str]:
        errors = gate.check_store(
            state["inputs"].preload, state["processed"], state["server"], self.params.tau
        )
        return errors + run.errors


def _store_counts(processed, server) -> tuple[dict, str]:
    h = hashlib.sha256()
    n_alerts = 0
    for msg, got in processed:
        if msg.tag == INFECTED and got:
            n_alerts += len(got)
            for a in sorted(got, key=lambda a: (a.user_id, a.encoding)):
                h.update(f"{a.user_id}\t{format_encoding(a.encoding)}\n".encode())
    counts = {
        "reports": len(processed),
        "infected_reports": sum(m.tag == INFECTED for m, _ in processed),
        "failed": sum(a is None for _, a in processed),
        "store_size": len(server.index),
        "alerts": n_alerts,
    }
    return counts, h.hexdigest()


def _handle_ns(tracer) -> int:
    if tracer is None:
        return 0
    return sum(tracer.total_ns[f"tracing.handle.{tag}"] for tag in (UNINFECTED, INFECTED))


def closed_loop(send, stream, run: Run, meter: Meter, tracer) -> list:
    """Send each report of `stream` in turn, each after the previous one
    returned, timing each on `meter`.  Returns, per report, the alerts
    it got back (None when the send raised)."""
    alerts = []
    infected = array("b")
    clock = meter.clock
    w0 = perf_counter_ns()
    meter.start()
    for msg in stream:
        meter.tick()
        if tracer is not None:
            tracer.begin_report()
        t0 = clock()
        try:
            got = send(msg)
        except Exception as exc:  # counted as a failed report, run continues
            got = None
            run.failed += 1
            run.first_error = run.first_error or f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if got is not None:
            meter.sample(t1 - t0)
            infected.append(msg.tag == INFECTED)
        alerts.append(got)
    meter.stop()
    run.add(meter, infected, perf_counter_ns() - w0)
    return alerts


# one round: 1000 infected queries, the minimum for a p99
ROW3_MIXED = StoreWorkload(
    "row3_mixed",
    PolyCodeParams(M=10**19, p=211, n=200, k=20),
    preload=10_000,
    stream=4 * MIN_SAMPLES,
    infected_every=4,
    tcp=False,
)
TCP_ROW1 = StoreWorkload(
    "tcp_row1",
    PolyCodeParams(M=10**19, p=503, n=100, k=10),
    preload=5_000,
    stream=10 * MIN_SAMPLES,
    infected_every=10,
    tcp=True,
)
WORKLOADS = {w.name: w for w in (Sim(), ROW3_MIXED, TCP_ROW1)}
