"""Span recorder for the traced run.

The tracer replaces public functions of the tracecloak modules with timing
wrappers, in the namespace where each caller looks them up, and restores
them afterwards.  Nothing in the package itself is changed.

Each wrapped call records a span (name, start, end, parent span, report id)
in compact in-memory arrays, which `write` saves when the run ends.  A
span's self time is its duration minus the time its child spans cover; the
per-name self time and call count are accumulated as spans close.

Three leaf functions run tens to hundreds of times per report (`to_digits`
and `eval_poly` inside every encode, `hamming` once per candidate inside a
query).  A span each would hold several million spans per run, so their
calls are folded into the enclosing span instead: their time is charged to
the parent as child time and to their own name, and their calls are counted,
but no span row is stored.
"""

from __future__ import annotations

import threading
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from tracecloak import encoder, matcher, tracing


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_report = array("q")
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.total_ns: defaultdict[str, int] = defaultdict(int)
        # server time spent in `handle` while a TCP client was running
        self.tcp_handle_ns = 0
        self.calls: Counter[str] = Counter()
        self.report_id = -1  # -1: input generation, not tied to a report
        self._next_report = 0
        self.counts: Counter[str] = Counter()
        self.selectivity_sum = 0.0
        self._last_query: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_report(self) -> None:
        """Start a new report: spans opened from now on carry its id."""
        self.report_id = self._next_report
        self._next_report += 1

    def _stack(self) -> list[list[int]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name: str) -> list[int]:
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        with self._lock:
            idx = len(self.span_name)
            self.span_name.append(self._name_id(name))
            self.span_start.append(0)
            self.span_end.append(0)
            self.span_parent.append(parent)
            self.span_report.append(self.report_id)
        frame = [idx, 0, name]
        stack.append(frame)
        return frame

    def _close(self, frame: list, t0: int, t1: int) -> None:
        stack = self._stack()
        stack.pop()
        idx, child_ns, name = frame
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self.self_ns[name] += t1 - t0 - child_ns
        self.total_ns[name] += t1 - t0
        self.calls[name] += 1
        if stack:
            stack[-1][1] += t1 - t0

    def span(self, name, fn, before=None, after=None):
        """Wrap `fn` so that each call records a span.

        `name` is a string or a function of the call's arguments.  `before`
        runs ahead of the call and `after(result, *args)` after it.
        """

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            frame = self._open(name(*args) if callable(name) else name)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._close(frame, t0, t1)
            if after is not None:
                after(result, *args)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot leaf function: time and count it, store no span."""

        def wrapper(*args):
            t0 = perf_counter_ns()
            result = fn(*args)
            dt = perf_counter_ns() - t0
            stack = self._stack()
            if stack:
                stack[-1][1] += dt
            self.self_ns[name] += dt
            self.calls[name] += 1
            return result

        return wrapper

    # -- installing the wrappers -------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        T, E, M = tracing, encoder, matcher
        enc = self.span("encoder.encode", E.encode)
        self._patch(E, "encode", enc)  # the benchmark's own input generation
        self._patch(T, "encode", enc)  # client_tick
        self._patch(T, "inflate", self.span("encoder.inflate", T.inflate))
        for fn in ("basic_encode", "sort_code", "corrupt"):
            self._patch(E, fn, self.span(f"encoder.{fn}", getattr(E, fn)))
        self._patch(E, "to_digits", self.leaf("numtheory.to_digits", E.to_digits))
        self._patch(E, "eval_poly", self.leaf("numtheory.eval_poly", E.eval_poly))
        self._patch(M, "hamming", self.leaf("matcher.hamming", M.hamming))
        self._patch(M.MatchIndex, "add", self.span("matcher.add", M.MatchIndex.add))
        self._patch(
            M.MatchIndex,
            "query",
            self.span("matcher.query", self._counted_query(M.MatchIndex.query)),
        )
        self._patch(
            T,
            "format_message",
            self.span("tracing.format_message", T.format_message, after=self._wire),
        )
        self._patch(T, "parse_message", self.span("tracing.parse_message", T.parse_message))
        self._patch(
            T.ServerState,
            "handle",
            self.span(
                lambda state, msg: f"tracing.handle.{msg.tag}",
                T.ServerState.handle,
                after=self._handled,
            ),
        )
        self._patch(
            T,
            "client_tick",
            self.span(
                "tracing.client_tick",
                T.client_tick,
                before=lambda *a: self.begin_report(),
            ),
        )
        self._patch(
            T,
            "client_handle_alert",
            self.span("tracing.client_handle_alert", T.client_handle_alert),
        )
        self._patch(
            T, "run_simulation", self.span("tracing.run_simulation", T.run_simulation)
        )
        self._patch(
            T.InProcessTransport,
            "send_report",
            self.span(
                "tracing.transport.send",
                T.InProcessTransport.send_report,
                before=self._infected_report_begins,
            ),
        )
        self._patch(
            T,
            "send_report_over_socket",
            self.span("tracing.tcp.round_trip", T.send_report_over_socket),
        )
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- counters kept at the layer boundaries -----------------------------

    def _counted_query(self, query):
        def wrapper(index, e, tau=None):
            before = self.calls["matcher.hamming"]
            size = len(index)
            result = query(index, e, tau)
            candidates = self.calls["matcher.hamming"] - before
            self.counts["queries"] += 1
            self.counts["candidates"] += candidates
            self.counts["hits"] += len(result)
            self.selectivity_sum += candidates / size if size else 0.0
            self._last_query = result
            return result

        return wrapper

    def _wire(self, line: str, msg) -> None:
        self.counts["wire_bytes"] += len(line.encode("utf-8")) + 1  # newline

    def _handled(self, alerts, state, msg) -> None:
        if msg.tag != tracing.INFECTED:
            return
        self_hits = sum(e.user_id == msg.user_id for e in self._last_query)
        self.counts["alerts"] += len(alerts)
        self.counts["self_hits_skipped"] += self_hits
        self.counts["dedupe_suppressed"] += len(self._last_query) - self_hits - len(alerts)
        self._last_query = []

    def _infected_report_begins(self, transport, msg) -> None:
        # inside the simulator a report starts at client_tick, except infected
        # re-reports, which are sent without a tick; the benchmark's own loops
        # (no span open) start each report themselves
        if msg.tag == tracing.INFECTED and self._stack():
            self.begin_report()

    # -- output ------------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write(self, path: Path) -> None:
        """Save every recorded span as a compressed numpy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            report=np.frombuffer(self.span_report, dtype=np.int64),
        )
