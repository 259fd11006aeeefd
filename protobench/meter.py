"""CPU time corrected for the speed the shared host gives the process.

On a virtual machine shared with other guests, the CPU time of one fixed
piece of Python work drifts with what the other guests do.  On a 2-vCPU
guest, the median time of a fixed loop ran between 1.16 and 1.67 ms in
consecutive 5-second windows, and the host switched between its fast and
slow modes many times a second.  Measured alone, a workload's CPU time
carries that drift into its figures.

A `Meter` interleaves the work with a fixed reference computation, written
here and not part of the package, so that no change to the program can
change it.  Every `PERIOD_NS` of work (checked at `tick`, between reports)
it runs the reference and times it.  The work between two references is a
segment.  A segment's CPU time is scaled by `REFERENCE_NS` divided by the
median time of the references around it: each figure is the CPU time the
work would have taken on a host that runs the reference in exactly 1 ms.

`python_reference` is interpreted small-integer loops and calls, the kind
of work the package does: Horner's rule modulo a small prime (as in
`encoder.eval_poly`) and `random.Random` draws (as in the random walk).  In
3-second windows over 90 s, while the host switched between a fast mode and
one 1.7 times slower, a small simulation varied by 13% (interquartile range
over median) and by 1.0% relative to a smaller version of the reference; a
loop of `matcher.hamming` calls varied by 12% and by 1.2%.

Work that touches a large store slows down more than those loops when the
host is busy, so a workload dominated by candidate verification uses
`HammingReference`, which adds Hamming distances between random tuples of
a pool of a few megabytes.  Over five seeds of `row3_mixed`, the spread of
its throughput (interquartile range over median) was 0.19 uncorrected and
0.016 corrected with `HammingReference`; with the pool alone, over five
other runs, it was 0.15 and 0.031.  A workload whose cost is mostly the
kernel's uses `LoopbackReference` instead, loopback connections to a
trivial threaded server, because the kernel's speed drifts apart from the
interpreter's.
"""

from __future__ import annotations

import random
import socket
import socketserver
import statistics
import threading
from array import array
from time import thread_time_ns
from typing import Callable

REFERENCE_NS = 1_000_000  # what the reference costs on the nominal host
PERIOD_NS = 20_000_000  # work between two references
CONNECTIONS = 2  # per loopback reference
WINDOW = 2  # references on each side of a segment that set its speed

_COEFFS = [(i * 7919) % 503 for i in range(40)]


def _horner(coeffs: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def python_reference() -> int:
    s = sum(_horner(_COEFFS, x, 503) for x in range(130))
    rng = random.Random(3)
    return s + sum(rng.randrange(100) for _ in range(650))


class HammingReference:
    """Hamming distances between random tuples of a pool too large for the
    private caches, like candidate verification in a large store, then
    `python_reference`."""

    def __init__(self):
        self._pool = [
            tuple((i * 31 + j * 17) % 211 for j in range(200)) for i in range(3000)
        ]
        self._rng = random.Random(9)

    def __call__(self) -> None:
        pool, rng = self._pool, self._rng
        for _ in range(24):
            a, b = pool[rng.randrange(len(pool))], pool[rng.randrange(len(pool))]
            sum(x != y for x, y in zip(a, b))
        python_reference()


class _OkHandler(socketserver.StreamRequestHandler):
    def handle(self):
        self.rfile.readline()
        self.wfile.write(b"OK\n")


class LoopbackReference:
    """A trivial threaded TCP server, one handler thread per connection
    like `tracing.SocketServer`; calling the object makes `CONNECTIONS`
    round trips to it."""

    def __init__(self):
        self._server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _OkHandler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._thread.start()

    def __call__(self) -> None:
        for _ in range(CONNECTIONS):
            with socket.create_connection(self._server.server_address) as conn:
                conn.sendall(b"ping\n")
                with conn.makefile("rb") as fh:
                    fh.readline()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()  # joins the handler threads
        self._thread.join()


class Meter:
    """Times work on `clock` and corrects it for the host's speed.

    `start` and `stop` bracket the work with a reference each; `tick`,
    called between units of work, runs one when `PERIOD_NS` of work has
    passed since the last.  Samples taken with `sample` are scaled with
    their segment when the meter stops.
    """

    def __init__(
        self,
        clock: Callable[[], int] = thread_time_ns,
        reference: Callable[[], object] = python_reference,
    ):
        self.clock = clock
        self.reference = reference
        self.refs = array("q")  # reference times, ns
        self.work = array("q")  # work of segment j, between refs j and j+1
        self._samples: list[array] = []  # per segment, raw ns
        self._since = 0
        self.scales: list[float] = []

    def _run_reference(self) -> None:
        t0 = self.clock()
        self.reference()
        self._since = self.clock()
        self.refs.append(self._since - t0)

    def start(self) -> None:
        self._run_reference()
        self._samples.append(array("q"))
        self.work.append(0)

    def tick(self) -> None:
        now = self.clock()
        if now - self._since >= PERIOD_NS:
            self.work[-1] = now - self._since
            self.start()

    def sample(self, ns: int) -> None:
        """Record one unit of work's raw time; it lies in the current segment."""
        self._samples[-1].append(ns)

    def stop(self) -> None:
        self.work[-1] = self.clock() - self._since
        self._run_reference()
        # segment j lies between refs j and j+1 (refs[0] is from start)
        for j in range(len(self.work)):
            around = self.refs[max(0, j + 1 - WINDOW) : j + 1 + WINDOW]
            self.scales.append(REFERENCE_NS / statistics.median(around))

    @property
    def raw_ns(self) -> int:
        return sum(self.work)

    @property
    def scaled_ns(self) -> float:
        return sum(w * s for w, s in zip(self.work, self.scales))

    def scaled_samples(self) -> list[float]:
        return [ns * s for seg, s in zip(self._samples, self.scales) for ns in seg]

    @property
    def slowdown(self) -> float:
        """Median reference time over REFERENCE_NS: how slow the host ran."""
        return statistics.median(self.refs) / REFERENCE_NS
