"""One model of the server, run on its four front ends.

The model is what the server must hold after any sequence of reports: the
stored (user id, tag, encoding) entries in insertion order, the set of
(user id, encoding) keys already alerted, and the number of infected
reports accepted.  Each rule sends one report and checks the answer
against the model: an accepted infected report alerts every stored entry
within tau of it (`scan_match` over the model), minus the reporter's own
entries and the keys already alerted, in store order; a refused report
raises one of a fixed table of reasons and changes nothing.  After every
step the server's store, infected log and dedupe set equal the model's
(Hughes, "Experiences with QuickCheck: Testing the Hard Stuff and Staying
Sane", 2016).

The same machine drives `ServerState.handle`, `InProcessTransport`,
`send_report_over_socket` against one `SocketServer`, and a pipelined
client that sends the lines of successive steps on one connection (a
refused line's `ERROR` ends that connection, and the next step opens
another); each front end is a subclass that sets its `send` and its table
of refusals.  A new server feature adds a rule and a model field here,
not a test of its own.  The concurrency races and the socket loop's edge
cases stay in `test_tracing.py`: a sequential model does not reach them.
"""

import operator
import re
import socket
import threading

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule

from tracecloak.encoder import CODE_LIMIT
from tracecloak.matcher import DatabaseEntry, scan_match
from tracecloak.tracing import INFECTED, POSSIBLE_INFECTION, UNINFECTED, AlertMsg, InProcessTransport
from tracecloak.tracing import ProtocolError, ReportMsg, ServerState, SocketServer, format_message, parse_message
from tracecloak.tracing import send_report_over_socket

N, TAU = 4, 2  # so k = 1
_users = st.sampled_from(["a", "b", "c"])
_points = st.tuples(*[st.integers(0, 4)] * N)  # few values, so that reports often lie within tau
_tags = st.sampled_from([UNINFECTED, INFECTED])

# a user id whose tab and newline would make a second report of one line
_CRAFTED = "a\tuninfected\t000400050006\nREPORT\tb"
_coordinates = st.one_of(
    st.integers(0, 40), st.integers(-3, -1), st.integers(CODE_LIMIT, CODE_LIMIT + 2),
    st.floats(allow_nan=False, width=32), st.booleans(),
    st.integers(0, 40).map(np.int64), st.integers(CODE_LIMIT, CODE_LIMIT + 2).map(np.uint32),
)  # fmt: skip
# each field is often good, so that reports are accepted and every reason shows
_any_reports = st.builds(
    ReportMsg,
    user_id=st.sampled_from(["a", "b", "z"])
    | st.text("ab\t\n", max_size=3)
    | st.sampled_from([_CRAFTED, None, -1, 0, b"", b"a", [], ["a"], ("a",)]),
    tag=_tags | st.sampled_from([POSSIBLE_INFECTION, "bogus", "", "in\tfected", None, 1, b"infected"]),
    encoding=st.sampled_from([(1, 2, 3, 4, 5), (1.0,)])  # n + 1 coordinates, and a float
    | st.lists(st.integers(0, 40), min_size=N, max_size=N).map(tuple)
    | st.lists(_coordinates, min_size=N, max_size=N).map(tuple)
    | st.lists(st.integers(0, 40), max_size=N + 2).map(tuple)
    | st.lists(_coordinates, max_size=N + 2).map(tuple),
)

# the reasons a report is refused with, by exception type, each a pattern
# that the reason must match from its start
_REFUSALS = {
    ProtocolError: (
        r"encoding length \d+ != index length \d+$",
        r"coordinate .+ at position \d+ is not an integer",
        r"bad report tag: ",
        r"tab or newline in the user id: ",
        r"user id is not a string: \w+$",  # its type, never its value
        r"not a report: AlertMsg$",
    ),
}
# a transport writes the line first, and `format_message` refuses what it
# cannot write before anything reaches the server
_WRITE_REFUSALS = {
    ValueError: (r"cannot write .* as uint16", r"an encoding has at least one coordinate$"),
    ProtocolError: (r"tab or newline in the tag: ", r"tag is not a string: \w+$", *_REFUSALS[ProtocolError]),
}


def _storable(c) -> bool:
    try:
        return 0 <= operator.index(c) < CODE_LIMIT
    except TypeError:
        return False


def _acceptable(msg) -> bool:
    """Whether the server must accept msg: a report whose user id it could
    write back in an alert line, one of the two report tags, and n
    coordinates that a uint16 row holds."""
    return (
        isinstance(msg, ReportMsg)
        and isinstance(msg.user_id, str)
        and not {"\t", "\n"} & set(msg.user_id)
        and msg.tag in (UNINFECTED, INFECTED)
        and len(msg.encoding) == N
        and all(map(_storable, msg.encoding))
    )


def _snapshot(state):
    index = state.index  # its rows too: a refused add must not leave one behind
    return len(index), len(state.infected_log), set(state._alerted), index.key_count(), bytes(index._codes)


@settings(max_examples=100, stateful_step_count=30, deadline=None)
class ServerModel(RuleBasedStateMachine):
    refusals = _REFUSALS
    stored = Bundle("stored")  # the entries the model holds

    def __init__(self):
        super().__init__()
        self.state = ServerState(n=N, tau=TAU)
        self.entries: list[DatabaseEntry] = []
        self.alerted: set[tuple[str, tuple[int, ...]]] = set()
        self.infected = 0

    def send(self, msg):
        return self.state.handle(msg)

    def _report(self, msg):
        """Send msg, check the answer against the model and update it; an
        accepted uninfected report returns its entry."""
        before = _snapshot(self.state)
        try:
            alerts = self.send(msg)
        except ValueError as exc:  # ProtocolError is one too
            assert any(re.match(p, str(exc)) for p in self.refusals.get(type(exc), ())), repr(exc)
            assert not _acceptable(msg), f"refused {msg!r}: {exc}"
            assert _snapshot(self.state) == before
            return None
        assert _acceptable(msg), f"accepted {msg!r}"
        encoding = tuple(map(operator.index, msg.encoding))
        if msg.tag == UNINFECTED:
            assert alerts == []
            self.entries.append(DatabaseEntry(msg.user_id, encoding, UNINFECTED))
            return self.entries[-1]
        self.infected += 1
        owed = []
        for entry in scan_match(self.entries, encoding, TAU):
            key = (entry.user_id, entry.encoding)
            if entry.user_id != msg.user_id and key not in self.alerted:
                self.alerted.add(key)
                owed.append(AlertMsg(*key))
        assert alerts == owed
        return None

    @rule(target=stored, user=_users, encoding=_points)
    def uninfected(self, user, encoding):
        return self._report(ReportMsg(user, UNINFECTED, encoding))

    @rule(entry=stored, own=st.booleans(), other=_users)
    def resend(self, entry, own, other):
        """An infected re-send of a stored encoding, by its owner or by another."""
        self._report(ReportMsg(entry.user_id if own else other, INFECTED, entry.encoding))

    @rule(entry=stored, user=_users, at=st.integers(0, N - 1), code=st.integers(0, 4))
    def reencoding(self, entry, user, at, code):
        """An infected report of a stored point encoded again: at most k = 1
        coordinate differs."""
        e = entry.encoding
        self._report(ReportMsg(user, INFECTED, e[:at] + (code,) + e[at + 1 :]))

    @rule(user=_users, encoding=_points)
    def fresh(self, user, encoding):
        self._report(ReportMsg(user, INFECTED, encoding))

    @rule(entry=stored, user=_users, tag=_tags, code=st.integers(0, 4))
    def one_coordinate_more(self, entry, user, tag, code):
        """A stored encoding and one coordinate more, which is refused: a
        block-order itemgetter would take its first n, a stored entry's."""
        self._report(ReportMsg(user, tag, entry.encoding + (code,)))

    @rule(msg=_any_reports | st.builds(AlertMsg, _users, _points))
    def anything(self, msg):
        self._report(msg)

    @invariant()
    def server_equals_model(self):
        index = self.state.index
        assert index.entries == self.entries
        assert index.key_count() == (TAU + 1) * len(index)
        assert len(self.state.infected_log) == self.infected
        assert self.state._alerted == self.alerted


class InProcessModel(ServerModel):
    refusals = _WRITE_REFUSALS

    def send(self, msg):
        return InProcessTransport(self.state).send_report(msg)


class SocketModel(InProcessModel):
    """One `SocketServer` a run.  The client's socket operations time out,
    so a server that never answers fails the run instead of hanging it."""

    def __init__(self):
        super().__init__()
        self.server = SocketServer(("127.0.0.1", 0), self.state)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.default_timeout = socket.getdefaulttimeout()
        socket.setdefaulttimeout(10.0)  # seconds

    def send(self, msg):
        return send_report_over_socket(self.server.server_address, msg)

    def teardown(self):
        socket.setdefaulttimeout(self.default_timeout)
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


class PipelinedSocketModel(SocketModel):
    """Each step's line goes on the connection of the steps before it, and
    its replies are read up to its OK; an ERROR ends the connection."""

    conn = replies = None

    def send(self, msg):
        line = (format_message(msg) + "\n").encode("utf-8")  # refuses before anything is sent
        if self.conn is None:
            self.conn = socket.create_connection(self.server.server_address)
            self.replies = self.conn.makefile("rb")
        self.conn.sendall(line)
        alerts = []
        while (reply := self.replies.readline().decode("utf-8")) != "OK\n":
            if reply.startswith("ERROR\t"):
                self.hang_up()
                raise ProtocolError(reply[len("ERROR\t") : -1])
            alerts.append(parse_message(reply.removesuffix("\n")))  # refuses the end of the stream
        return alerts

    def hang_up(self):
        if self.conn is not None:
            self.replies.close()
            self.conn.close()
            self.conn = self.replies = None

    def teardown(self):
        self.hang_up()
        super().teardown()


TestServerState = ServerModel.TestCase
TestInProcessTransport = InProcessModel.TestCase
TestSocketServer = SocketModel.TestCase
TestSocketServer.settings = settings(TestServerState.settings, max_examples=40, stateful_step_count=25)
TestPipelinedSocketServer = PipelinedSocketModel.TestCase
TestPipelinedSocketServer.settings = TestSocketServer.settings
