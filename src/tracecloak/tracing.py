"""Client/server tracing protocol and simulator.

Clients continuously report encoded (time, cell) points tagged uninfected
and keep a local (t, l, e) database in three columns: epochs and cells as
uint64 arrays, and each encoding as its packed uint16 row
(`encoder.pack_encoding`, the row the wire carries in hex), the rows back
to back in one bytearray.  On infection they re-send their recent
encodings tagged infected; the server matches those against the uninfected
store at threshold tau = 2k and pushes each matching entry's own encoding
back to its reporter, who recovers (t, l) locally.  A client's tick
(`client_tick`) records the packed row it is given and reports its
encoding; the simulator is the one place that packs, inflates, encodes
and corrupts the points, an epoch at a time, the corruption in one
`encoder.corrupt_rows` pass and the rows packed once.  Each agent reports
its own cell once an epoch; the dilation radius widens only an infected
agent's re-send, which adds fresh encodings of the cells around each
record's.  Before any of that the simulator walks every agent's trail in
numpy, and keeps each trail as a uint64 array too.  Every draw of a
simulation comes from one numpy `Generator`.
"""

from __future__ import annotations

import logging
import math
import selectors
import socket
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from operator import index
from typing import ClassVar, Iterable, Sequence

import numpy as np

# encode and inflate are not called here (the simulator encodes and inflates
# an epoch at a time); they are imported so that protobench's tracer still
# finds tracing.encode and tracing.inflate to wrap
from .encoder import (  # noqa: F401
    Params,
    _sorted_rows,
    corrupt_rows,
    encode,
    inflate,
    inflate_points,
    pack_encoding,
    parse_encoding,
    unpack_encoding,
)
from .matcher import MatchIndex

UNINFECTED = "uninfected"
INFECTED = "infected"
POSSIBLE_INFECTION = "possible-infection"
_REPORT_TAGS = (UNINFECTED, INFECTED)  # an ALERT line carries POSSIBLE_INFECTION


class ProtocolError(ValueError):
    """A refused message, malformed or one the store refuses; over TCP it
    is the ERROR line that ends the connection."""


class UnknownEncodingError(KeyError):
    """Alert for an encoding this client never emitted (misrouted alert)."""


class OutOfBoundsError(ValueError):
    """Position or time outside the configured grid."""


@dataclass(slots=True)
class ReportMsg:
    user_id: str
    tag: str  # UNINFECTED or INFECTED
    encoding: tuple[int, ...]


@dataclass(slots=True)
class AlertMsg:
    user_id: str  # recipient
    encoding: tuple[int, ...]
    tag: ClassVar[str] = POSSIBLE_INFECTION  # the only tag an ALERT line carries


@dataclass(frozen=True)
class GridSpec:
    """Discretization of space and time: a rows x cols grid of cells over
    `epochs` time steps.

    The world packs (epoch, cell) pairs: x = epoch * cells + cell.  At
    production scale there would be about 10^14 cells at 1 m resolution and
    10^5 thirty-second epochs.  Rows, cols and epochs are kept as Python
    ints (`operator.index`): a numpy int is converted, so `cells` cannot
    overflow, and a float is a TypeError, not floored.
    """

    rows: int
    cols: int
    epochs: int

    def __post_init__(self):
        for name in ("rows", "cols", "epochs"):
            object.__setattr__(self, name, index(getattr(self, name)))
        if min(self.rows, self.cols, self.epochs) < 1:
            raise ValueError("rows, cols and epochs must be at least 1")

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def world_size(self) -> int:
        return self.cells * self.epochs


def pack(epoch: int, cell: int, grid: GridSpec) -> int:
    """The world point of (epoch, cell).  Each must be an int
    (`operator.index`): a numpy int is converted, and a float is a
    TypeError."""
    epoch, cell = index(epoch), index(cell)
    if not 0 <= epoch < grid.epochs:
        raise OutOfBoundsError(f"epoch {epoch} outside [0, {grid.epochs})")
    if not 0 <= cell < grid.cells:
        raise OutOfBoundsError(f"cell {cell} outside [0, {grid.cells})")
    return epoch * grid.cells + cell


def dilate(cell: int, radius: int, grid: GridSpec) -> list[int]:
    """All cells within Chebyshev distance `radius`, clipped at the boundary,
    in ascending order.  At radius 0 the list holds `cell` itself.  The cell
    and the radius must be ints (`operator.index`), as in `pack`."""
    cell, radius = index(cell), index(radius)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    row, col = divmod(cell, grid.cols)
    if not 0 <= row < grid.rows:  # the same as cell outside [0, grid.cells)
        raise OutOfBoundsError(f"cell {cell} outside [0, {grid.cells})")
    if radius == 0:
        return [cell]
    return [
        r * grid.cols + c
        for r in range(max(0, row - radius), min(grid.rows, row + radius + 1))
        for c in range(max(0, col - radius), min(grid.cols, col + radius + 1))
    ]


# ---------------------------------------------------------------------------
# Wire format: newline-delimited text, one message per line.


def format_message(msg: ReportMsg | AlertMsg) -> str:
    """The message's wire line, without its newline.  Raises ProtocolError
    for a user id or tag that is not a string, or that holds a tab or a
    newline, which would end its field or its line early."""
    coords = pack_encoding(msg.encoding).hex()
    user_id, tag = msg.user_id, msg.tag
    if not isinstance(user_id, str) or "\t" in user_id or "\n" in user_id:
        raise _field_error("user id", user_id)
    if not isinstance(tag, str) or "\t" in tag or "\n" in tag:
        raise _field_error("tag", tag)
    kind = "REPORT" if isinstance(msg, ReportMsg) else "ALERT"
    return f"{kind}\t{user_id}\t{tag}\t{coords}"


def _field_error(name: str, value: object) -> ProtocolError:
    if not isinstance(value, str):  # not its repr, which could be of any size
        return ProtocolError(f"{name} is not a string: {type(value).__name__}")
    return ProtocolError(f"tab or newline in the {name}: {_excerpt(value)}")


_EXCERPT = 16  # characters of a refused field that a reason shows


def _excerpt(field: str) -> str:
    """repr of a refused field, cut to its first `_EXCERPT` characters plus
    its length: a reason names the field without echoing a line of any size."""
    if len(field) <= _EXCERPT:
        return repr(field)
    return f"{field[:_EXCERPT]!r}... ({len(field)} chars)"


def parse_message(line: str) -> ReportMsg | AlertMsg:
    line = line.rstrip("\n")
    if "\n" in line:  # the TCP server would read two lines here
        raise ProtocolError("newline inside a message")
    parts = line.split("\t")
    if len(parts) != 4:
        raise ProtocolError(f"expected 4 fields, got {len(parts)}")
    kind, user_id, tag, coords = parts
    try:
        encoding = parse_encoding(coords)
    except ValueError:
        raise ProtocolError(f"bad coordinate list: {_excerpt(coords)}") from None
    if kind == "REPORT" and tag in _REPORT_TAGS:
        return ReportMsg(user_id, tag, encoding)
    if kind == "ALERT" and tag == POSSIBLE_INFECTION:
        return AlertMsg(user_id, encoding)
    if kind in ("REPORT", "ALERT"):
        raise ProtocolError(f"bad {kind.lower()} tag: {_excerpt(tag)}")
    raise ProtocolError(f"unknown message kind: {_excerpt(kind)}")


# ---------------------------------------------------------------------------
# Client and server state machines.


_U64 = 1 << 64  # epochs and cells are kept as uint64


class ClientState:
    """Local (t, l, e) database: one record per report, in report order, in
    three columns.  Epochs and cells are `array("Q")`s; the encodings are
    their `pack_encoding` rows (2n bytes each), back to back in one
    bytearray, and the first record fixes the row width.  `record` is the
    one checked way in, and takes the row packed; `add` packs an encoding
    and records it.  At n = 20 a record costs about 68 bytes (tracemalloc,
    40 clients of 50 records).

    Forgetting the oldest records would be a prefix delete of each column.
    `lookup` finds the latest record of an encoding by searching the rows
    from the end; `records_between` unpacks the rows it returns."""

    __slots__ = ("user_id", "_epochs", "_cells", "_rows", "_width")

    def __init__(self, user_id: str):
        self.user_id = user_id
        self._epochs = array("Q")
        self._cells = array("Q")
        self._rows = bytearray()
        self._width = 0  # bytes per row, 0 until the first record

    def __len__(self) -> int:
        return len(self._epochs)

    def add(self, t: int, cell: int, encoding: Sequence[int]) -> None:
        """Record that the encoding of (t, cell) was reported: `record` of
        its `pack_encoding` row.  Raises ValueError, and records nothing,
        for an encoding `pack_encoding` refuses, and where `record` does."""
        self.record(t, cell, pack_encoding(encoding))

    def record(self, t: int, cell: int, row: bytes) -> None:
        """Record that the encoding packed in `row` (`pack_encoding`'s
        big-endian uint16) was reported as (t, cell).  Raises ValueError,
        and records nothing, for a row of no bytes or of an odd number of
        them, of another width than the first record's, or for t or cell
        outside [0, 2^64); a t or cell that is not an int, or a row that is
        not bytes, is a TypeError."""
        width = len(row)
        if not width or width & 1:
            raise ValueError(f"not 2 bytes per coordinate: {width} bytes")
        if self._rows and width != self._width:
            raise ValueError(
                f"an encoding of {width >> 1} coordinates, not {self._width >> 1}"
            )
        t, cell = index(t), index(cell)
        if not (0 <= t < _U64 and 0 <= cell < _U64):
            raise ValueError(f"(t, cell) = ({t}, {cell}) outside [0, 2^64)")
        self._rows += row  # first: a row that is not bytes changes nothing
        self._width = width
        self._epochs.append(t)
        self._cells.append(cell)

    def lookup(self, encoding: Sequence[int]) -> tuple[int, int]:
        """The (t, cell) of the latest record of an encoding.  Raises
        UnknownEncodingError for one this client never reported, including
        anything `pack_encoding` refuses or of another length."""
        try:
            row = pack_encoding(encoding)
        except ValueError:
            raise UnknownEncodingError(encoding) from None
        width, rows = len(row), self._rows
        if width == self._width:
            end = len(rows)
            # a match that does not start at a row boundary straddles two rows
            while (at := rows.rfind(row, 0, end)) >= 0:
                i, off = divmod(at, width)
                if not off:
                    return self._epochs[i], self._cells[i]
                end = at + width - 1
        raise UnknownEncodingError(encoding)

    def records_between(
        self, t_start: int, t_end: int
    ) -> list[tuple[int, int, tuple[int, ...]]]:
        """Records with t_start <= t <= t_end, by epoch, then report order."""
        epochs, w = self._epochs, self._width
        picked = sorted(
            (i for i, t in enumerate(epochs) if t_start <= t <= t_end),
            key=epochs.__getitem__,
        )
        return [
            (epochs[i], self._cells[i], unpack_encoding(self._rows[i * w : i * w + w]))
            for i in picked
        ]


def client_tick(client: ClientState, t: int, cell: int, row: bytes) -> ReportMsg:
    """Record the client's (t, cell) with `row`, the `pack_encoding` row of
    the released encoding of its world point, and return its report, which
    carries `unpack_encoding(row)`.  A row `ClientState.record` refuses
    raises before anything is recorded.

    The caller encodes, corrupts and packs: the simulator a whole epoch at
    once (`encoder.corrupt_rows`, then one `astype(">u2")`), and a lone
    client packs and optionally inflates its point, corrupts its
    `sorted_codes` row with `encoder.corrupt` and packs that with
    `pack_encoding`.
    """
    client.record(t, cell, row)
    return ReportMsg(user_id=client.user_id, tag=UNINFECTED, encoding=unpack_encoding(row))


def client_handle_alert(client: ClientState, alert: AlertMsg) -> tuple[int, int]:
    """Recover the contact's (t, l) from the alerted encoding."""
    return client.lookup(alert.encoding)


class ServerState:
    """Uninfected store + match index; infected reports are logged, not indexed.

    An uninfected report changes only the store, so `handle` adds it under
    the index's own lock alone.  An infected one queries, logs and updates
    the alert dedupe set under the server's lock, so concurrent infected
    reports see those change one report at a time, and each query sees each
    add whole.  A report it refuses raises ProtocolError before anything
    changes: `handle` checks the tag and the user id, and the index the
    encoding's length and coordinates, each layer with its own checks.
    """

    def __init__(self, n: int, tau: int):
        self.index = MatchIndex(n, tau)
        self.infected_log: list[ReportMsg] = []
        self._alerted: set[tuple[str, tuple[int, ...]]] = set()
        self._lock = threading.Lock()

    @property
    def store_size(self) -> int:
        return len(self.index)

    def handle(self, msg: ReportMsg) -> list[AlertMsg]:
        if not isinstance(msg, ReportMsg):  # not its repr: that is the whole line
            raise ProtocolError(f"not a report: {type(msg).__name__}")
        tag, user_id = msg.tag, msg.user_id
        if tag not in _REPORT_TAGS:
            raise ProtocolError(f"bad report tag: {_excerpt(str(tag))}")
        # `in` alone passes a list id, and the index's add stores its row, then fails
        if not isinstance(user_id, str) or "\t" in user_id or "\n" in user_id:
            raise _field_error("user id", user_id)  # an alert to it could not be sent
        # the store refuses a report before it keeps or logs anything
        if tag == UNINFECTED:
            try:
                self.index.add(msg)  # keeps its fields, not the message
            except ValueError as exc:  # its length, range and capacity checks
                raise ProtocolError(str(exc)) from exc
            return []
        with self._lock:
            try:
                hits = self.index.query(msg.encoding)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from exc
            self.infected_log.append(msg)
            alerts = []
            for entry in hits:
                if entry.user_id == msg.user_id:
                    continue  # reporters already know their own history
                key = (entry.user_id, entry.encoding)
                if key in self._alerted:
                    continue
                self._alerted.add(key)
                alerts.append(AlertMsg(user_id=entry.user_id, encoding=entry.encoding))
            return alerts


# ---------------------------------------------------------------------------
# Transports: the in-process one round-trips every message through the
# wire format; the socket one speaks the same bytes over TCP.


class InProcessTransport:
    """Serializes each message to its wire line and hands it to the server."""

    def __init__(self, server: ServerState):
        self.server = server

    def send_report(self, msg: ReportMsg) -> list[AlertMsg]:
        if not (alerts := self.server.handle(parse_message(format_message(msg)))):
            return alerts  # most reports alert no one
        return [parse_message(format_message(a)) for a in alerts]  # type: ignore[misc]


DISCARD_LIMIT = 1 << 22  # bytes read and dropped after an ERROR reply

_log = logging.getLogger("tracecloak.server")


class _Connection:
    """What the selector loop knows about one client.

    `inbuf` holds the bytes received but not yet answered, `outbuf` the
    reply bytes the socket has not taken yet.  The connection is dropped at
    `deadline` unless a line completes or a reply is flushed first.
    `discard` is None while the connection is served; after an ERROR reply
    it counts the bytes that may still be read and dropped."""

    __slots__ = ("sock", "peer", "inbuf", "outbuf", "deadline", "discard", "eof")

    def __init__(self, sock: socket.socket, peer: tuple[str, int]):
        self.sock, self.peer, self.deadline = sock, peer, 0.0
        self.inbuf, self.outbuf = bytearray(), bytearray()
        self.discard: int | None = None
        self.eof = False  # the peer has closed its side

    def wanted(self) -> int:
        """The selector events this connection waits for, 0 once it is done.
        It reads only when no reply waits, unless the input is discarded."""
        events = selectors.EVENT_WRITE if self.outbuf else 0
        if not self.eof and (self.discard is not None or not self.outbuf):
            events |= selectors.EVENT_READ
        return events


class SocketServer:
    """Newline-delimited TCP front end; each REPORT line is answered with
    the resulting ALERT lines (recipient in the message) then an OK line.

    One thread, the one in `serve_forever`, serves every connection from a
    selector loop.  A new connection is read in the turn that accepts it,
    and it is registered with the selector only when it has to wait for
    input or for room to send, so a one-shot client that has sent its line
    is answered and closed without a selector call.  In one turn the server
    stops reading a connection once it has read one receive buffer (64 KiB)
    from it, so a client that sends without pause does not hold the loop.
    Sockets never block: a reply the client does not read yet waits in the
    connection's buffer, and the server reads no more from that connection
    until the reply is sent, so a client that never reads neither stalls
    the others nor grows the server's memory.

    A connection whose next line is not complete within `idle_timeout`
    seconds is dropped, whether it idles or trickles bytes.  A bad line, or
    one longer than `max_line` bytes (newline included), gets ERROR and ends
    the connection: the server stops sending, then reads and drops at most
    `DISCARD_LIMIT` more bytes, for at most `idle_timeout` seconds, so that
    the client can still read the ERROR line before the connection closes.
    Each rejected or dropped connection is logged once, as a warning on the
    "tracecloak.server" logger."""

    idle_timeout = 10.0  # seconds
    max_line = 1 << 16  # bytes; a report line at reference row 3 is about 830

    def __init__(self, address: tuple[str, int], state: ServerState):
        self.state = state
        # sets SO_REUSEADDR on POSIX, and closes the socket if bind or listen fails
        self.socket = socket.create_server(address, backlog=socket.SOMAXCONN)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        # `shutdown` writes a byte to `_waker`, which ends the loop's select
        self._wakeup, self._waker = socket.socketpair()
        self._wakeup.setblocking(False)
        self._selector.register(self._wakeup, selectors.EVENT_READ)
        # one receive buffer for every connection: a fresh buffer per recv,
        # shrunk to the line, leaves holes between the store's long-lived
        # entries, and peak RSS grew by 3 MB on the tcp_row1 benchmark workload
        self._chunk = memoryview(bytearray(1 << 16))
        self._next_expiry = math.inf  # no deadline falls before it
        self._stop = False
        self._stopped = threading.Event()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve every connection until `shutdown` is called, which takes
        effect at once: it wakes the selector.  No select waits longer than
        `poll_interval` seconds."""
        self._stopped.clear()
        try:
            while not self._stop:
                self._turn(poll_interval)
        finally:
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop `serve_forever` and wait until it has returned.  Call it from
        another thread; open connections stay open until `server_close`."""
        self._stop = True
        if not self._stopped.is_set():  # unless the loop has ended, end its select
            self._waker.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        """Close the listening socket, the wake-up pair and every connection
        still open.  A second call does nothing."""
        for key in list((self._selector.get_map() or {}).values()):  # None once closed
            if key.data is not None:
                self._close(key.data, key.events)
        self._selector.close()
        self.socket.close()
        self._wakeup.close()
        self._waker.close()

    def _turn(self, poll_interval: float) -> None:
        """One select of the loop: drop the connections past their deadline,
        wait at most `poll_interval` seconds, and serve what is ready."""
        now = time.monotonic()
        if now >= self._next_expiry:
            self._expire(now)
        wait = min(poll_interval, self._next_expiry - now)
        for key, events in self._selector.select(max(wait, 0.0)):
            if key.data is not None:
                self._step(key.data, events, key.events)
            elif key.fileobj is self.socket:
                self._accept()
            else:  # the wake-up byte of `shutdown`
                self._wakeup.recv(64)

    def _accept(self) -> None:
        try:
            sock, peer = self.socket.accept()
        except OSError:  # the client gave up before the accept
            return
        sock.setblocking(False)
        conn = _Connection(sock, peer)
        self._set_deadline(conn)
        # a client that has sent its line is usually answered in this turn
        self._step(conn, selectors.EVENT_READ, 0)

    def _step(self, conn: _Connection, events: int, registered: int) -> None:
        """Serve `conn` for the ready `events`: send what waits, then read
        and answer until the socket would block, the peer has ended, a reply
        waits, or one receive buffer has been read in this turn.  Then close
        the connection if it is done, or (re-)register it for what it waits
        for; `registered` is what the selector watches it for, 0 if nothing."""
        budget = len(self._chunk) if events & selectors.EVENT_READ else 0
        try:
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            while budget > 0 and conn.wanted() & selectors.EVENT_READ:
                got = self._read(conn)
                if got is None:
                    break
                budget -= got
        except OSError as exc:  # the peer reset or closed the connection
            reason = None if conn.discard is not None else f"connection lost: {exc}"
            self._close(conn, registered, reason)
            return
        except Exception:  # a fault in the program: drop this client, serve the rest
            _log.exception("dropped %s:%d: internal error", *conn.peer)
            self._close(conn, registered)
            return
        wanted = conn.wanted()
        if not wanted:
            self._close(conn, registered)
        elif not registered:
            self._selector.register(conn.sock, wanted, conn)
        elif wanted != registered:
            self._selector.modify(conn.sock, wanted, conn)

    def _read(self, conn: _Connection) -> int | None:
        """Read once into the shared buffer and answer or discard what came.
        Return the number of bytes read, 0 at the end of input, or None if
        the socket would block."""
        try:
            got = conn.sock.recv_into(self._chunk)
        except BlockingIOError:
            return None
        conn.eof = not got
        if conn.discard is None:
            conn.inbuf += self._chunk[:got]
            self._answer(conn)
        else:
            conn.discard -= got
            if conn.discard <= 0:  # enough: close even if the ERROR is unsent
                conn.eof = True
                conn.outbuf.clear()
        return got

    def _answer(self, conn: _Connection) -> None:
        """Answer every complete line in `inbuf` (and, once the peer has
        closed, a last line without its newline), then send the replies.
        Each line answered restarts the clock for the next one."""
        buf, limit = conn.inbuf, self.max_line
        try:
            while True:
                end = buf.find(b"\n", 0, limit) + 1
                if not end:
                    if len(buf) > limit:
                        raise ProtocolError(f"line longer than {limit} bytes")
                    if not (conn.eof and buf):
                        break
                    end = len(buf)
                line = buf[:end]
                del buf[:end]
                conn.outbuf += self._reply(line)
                self._set_deadline(conn)
        # ProtocolError, the store's refusals included, and UnicodeDecodeError
        # are the ValueErrors that arrive here
        except ValueError as exc:
            self._reject(conn, str(exc))
            return
        if conn.outbuf:
            self._flush(conn)

    def _reply(self, raw: bytearray) -> bytes:
        line = raw.decode("utf-8").rstrip("\n")
        if not line:
            return b""
        alerts = self.state.handle(parse_message(line))  # refuses an ALERT line
        if not alerts:  # most reports alert no one
            return b"OK\n"
        return ("".join(format_message(a) + "\n" for a in alerts) + "OK\n").encode("utf-8")

    def _reject(self, conn: _Connection, reason: str) -> None:
        """Queue one ERROR line and switch the connection to discarding."""
        _log.warning("rejected %s:%d: %s", *conn.peer, reason)
        conn.outbuf += f"ERROR\t{reason}\n".encode("utf-8")
        conn.inbuf.clear()
        conn.discard = DISCARD_LIMIT
        self._set_deadline(conn)
        self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        del conn.outbuf[:sent]
        if conn.outbuf:
            return
        if conn.discard is None:
            self._set_deadline(conn)
        else:
            # closing with unread input makes the kernel reset the
            # connection, and the reset can destroy the ERROR before the
            # client reads it, so half-close and read on
            conn.sock.shutdown(socket.SHUT_WR)

    def _set_deadline(self, conn: _Connection) -> None:
        conn.deadline = time.monotonic() + self.idle_timeout
        self._next_expiry = min(self._next_expiry, conn.deadline)

    def _expire(self, now: float) -> None:
        """Drop every connection past its deadline and find the next one."""
        self._next_expiry = math.inf
        for key in list(self._selector.get_map().values()):
            conn = key.data
            if conn is None:
                continue
            if conn.deadline > now:
                self._next_expiry = min(self._next_expiry, conn.deadline)
            elif conn.discard is not None:
                self._close(conn, key.events)
            elif conn.outbuf:
                self._close(conn, key.events, f"reply not read within {self.idle_timeout} s")
            else:
                self._close(conn, key.events, f"no complete line within {self.idle_timeout} s")

    def _close(self, conn: _Connection, registered: int, reason: str | None = None) -> None:
        """Close `conn`, and unregister it if the selector watches it."""
        if reason is not None:
            _log.warning("dropped %s:%d: %s", *conn.peer, reason)
        if registered:
            self._selector.unregister(conn.sock)
        conn.sock.close()


def send_report_over_socket(
    address: tuple[str, int], msg: ReportMsg
) -> list[AlertMsg]:
    """One-shot client: send a report line, read alerts until the OK line.

    Raises ProtocolError on an ERROR line, on any other line that is not an
    ALERT line (one that is not UTF-8 included) or when the stream ends
    before OK, so a report the server did not accept never looks accepted.
    A report `format_message` refuses raises before anything is sent."""
    line = (format_message(msg) + "\n").encode("utf-8")
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as conn:
        conn.connect(address)
        conn.sendall(line)
        conn.shutdown(socket.SHUT_WR)
        alerts, rest = [], b""
        while True:
            got = conn.recv(1 << 16)
            *lines, rest = (rest + got).split(b"\n")
            if not got and rest:
                lines.append(rest)  # the stream ended inside a line
            for raw in lines:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    text = raw.decode("utf-8", "replace")
                    raise ProtocolError(f"reply line not UTF-8: {_excerpt(text)}") from None
                if line == "OK":
                    return alerts
                if line.startswith("ERROR\t"):
                    raise ProtocolError(line.split("\t", 1)[1])
                parsed = parse_message(line)
                if not isinstance(parsed, AlertMsg):
                    raise ProtocolError(f"expected an ALERT line, got {line!r}")
                alerts.append(parsed)
            if not got:
                raise ProtocolError("connection closed before OK")


# ---------------------------------------------------------------------------
# Simulation: random walkers on a small grid with one (or more) infected
# agents re-reporting their trail at a chosen epoch.


@dataclass
class SimulationResult:
    """What a simulation did: each agent's trail (its cell at each epoch, a
    uint64 array), the alerts each agent got, the (t, cell) every alert
    recovered, the true contacts the alerts are checked against, and the
    server with its store and infected log."""

    trajectories: dict[str, array[int]]  # user -> cell per epoch
    alerts: dict[str, list[AlertMsg]] = field(default_factory=dict)
    # (recipient, epoch, cell, encoding) for every delivered alert
    recovered: list[tuple[str, int, int, tuple[int, ...]]] = field(
        default_factory=list
    )
    contacts: set[str] = field(default_factory=set)
    server: ServerState | None = None

    def alerted_users(self) -> set[str]:
        return {u for u, msgs in self.alerts.items() if msgs}


def run_simulation(
    agents: int,
    grid: GridSpec,
    params: Params,
    seed: int,
    infections: Sequence[tuple[str, int]],
    dilation_radius: int = 0,
    window: int | None = None,
    inflate_world: bool = False,
) -> SimulationResult:
    """Random-walk agents reporting every epoch; infections replay their trail.

    Each agent reports its own cell once an epoch.  `infections` holds
    (user_id, epoch) pairs with 0 <= epoch < grid.epochs; `window` (>= 0)
    limits how far back an infected agent re-reports (defaults to the whole
    horizon).  The infected agent re-sends each record in its window, and
    after it fresh encodings of the other cells within Chebyshev distance
    `dilation_radius` of that record's cell at its epoch, so the users
    within that distance of it are alerted.  Each epoch, the window and
    `dilation_radius` are ints (`operator.index`), as in `pack`: a float is
    a TypeError before anything is drawn.  The result holds the trails, the
    alerts and what each recovered, the true contacts and the server.
    Every draw comes from `np.random.default_rng(seed)`, which refuses a
    negative seed.

    With `inflate_world` each packed point is passed through the square-free
    inflation map first.  Small dense worlds are vulnerable to algebraic
    twin collisions (two points whose polynomials are reflections of each
    other across the evaluation grid sort to the same vector); inflation
    scatters the world over a ~10^39 range where a twin almost never lands
    on another valid point.  Parameters must then cover the inflated range.
    """
    if agents < 1:
        raise ValueError(f"need at least one agent, got {agents}")
    if grid.cells >= 1 << 63:  # _trails walks in int64
        raise ValueError(f"a grid of {grid.cells} cells: the walk needs fewer than 2^63")
    dilation_radius = index(dilation_radius)
    if dilation_radius < 0:
        raise ValueError(f"negative dilation radius {dilation_radius}")
    if window is not None and (window := index(window)) < 0:
        raise ValueError(f"negative reporting window {window}")
    infections = [(user, index(epoch)) for user, epoch in infections]
    users = [f"u{i}" for i in range(agents)]
    clients = {u: ClientState(u) for u in users}
    infections_by_epoch: dict[int, list[str]] = defaultdict(list)
    for user, epoch in infections:
        if user not in clients:
            raise ValueError(f"unknown infected user {user!r}")
        if not 0 <= epoch < grid.epochs:
            raise ValueError(
                f"infection epoch {epoch} of {user!r} outside [0, {grid.epochs})"
            )
        infections_by_epoch[epoch].append(user)

    server = ServerState(n=params.n, tau=params.tau)
    transport = InProcessTransport(server)
    rng = np.random.default_rng(seed)

    # Every trail comes first, walked from start cells drawn from the one
    # generator, so the trails and the contacts do not depend on how the
    # clients encode.  Then each epoch packs, inflates, encodes and corrupts
    # every agent's point in one batch, packs the rows once, and hands each
    # agent its cell and row to record and send, in user order.
    trails = _trails(rng.integers(grid.cells, size=agents), grid, rng)
    trajectories = dict(zip(users, trails))
    result = SimulationResult(
        trajectories=trajectories, alerts={u: [] for u in users}, server=server
    )
    send = transport.send_report
    for t in range(grid.epochs):
        first = pack(t, 0, grid)  # every trail cell is on the grid
        rows = _encoded_rows([first + trail[t] for trail in trails], params, inflate_world, rng)
        # every coordinate is below the alphabet, which the parameters keep
        # within uint16, so the cast loses nothing
        packed, width = rows.astype(">u2").tobytes(), 2 * rows.shape[1]
        for client, trail, at in zip(clients.values(), trails, range(0, len(packed), width)):
            # the server stores an uninfected report and alerts no one
            send(client_tick(client, t, trail[t], packed[at : at + width]))
        if not (infected := infections_by_epoch.get(t)):
            continue
        t_start = 0 if window is None else max(0, t - window)
        # each record of the window, then fresh encodings of the other cells
        # within the radius of its cell at its epoch, from one batch for the
        # epoch; at radius 0 the batch is empty and draws nothing
        resent = [
            (u, te, e, [c for c in dilate(cell, dilation_radius, grid) if c != cell])
            for u in infected
            for te, cell, e in clients[u].records_between(t_start, t)
        ]
        points = [pack(te, c, grid) for _, te, _, near in resent for c in near]
        fresh = iter(_encoded_rows(points, params, inflate_world, rng).tolist() if points else ())
        for u, _, e, near in resent:
            for encoding in [e, *islice(fresh, len(near))]:
                if alerts := send(ReportMsg(user_id=u, tag=INFECTED, encoding=encoding)):
                    _deliver(alerts, clients, result)

    result.contacts = _contacts(trajectories, infections, window, dilation_radius, grid)
    return result


def _encoded_rows(
    points: Sequence[int], params: Params, inflate_world: bool, rng: np.random.Generator
) -> np.ndarray:
    """The released encoding of each world point, as one int64 array of
    rows: inflated with `inflate_world`, encoded and sorted
    (`encoder._sorted_rows`), then corrupted in one `corrupt_rows` pass."""
    codes = _sorted_rows(inflate_points(points) if inflate_world else points, params)
    return corrupt_rows(codes, params.k, params.alphabet, rng)


def _trails(
    starts: Sequence[int], grid: GridSpec, rng: np.random.Generator
) -> list[array[int]]:
    """Each agent's cell at every epoch, as a uint64 array: a lazy king's
    walk from its start cell, clamped to the grid.  Each epoch draws every
    agent's row step and column step, each uniform over -1, 0 and +1, in
    one `rng.integers` call.  The cells are int64 here: the grid must hold
    fewer than 2^63."""
    rows, cols = np.divmod(np.asarray(starts, np.int64), grid.cols)
    trails = np.empty((len(rows), grid.epochs), np.uint64)
    for t in range(grid.epochs):
        steps = rng.integers(-1, 2, (2, len(rows)))
        np.clip(rows + steps[0], 0, grid.rows - 1, out=rows)
        np.clip(cols + steps[1], 0, grid.cols - 1, out=cols)
        trails[:, t] = rows * grid.cols + cols
    return [array("Q", trail.tobytes()) for trail in trails]


def _contacts(
    trajectories: dict[str, Sequence[int]],
    infections: Sequence[tuple[str, int]],
    window: int | None,
    radius: int,
    grid: GridSpec,
) -> set[str]:
    """Ground truth: everyone within Chebyshev distance `radius` of an
    infected agent's cell at an epoch inside that agent's reporting window."""
    # epoch -> cell -> the infected agents within the radius inside their window
    infected_at: dict[int, dict[int, set[str]]] = defaultdict(dict)
    for user, epoch in infections:
        cells = trajectories[user]
        for t in range(0 if window is None else max(0, epoch - window), epoch + 1):
            for cell in dilate(cells[t], radius, grid):
                infected_at[t].setdefault(cell, set()).add(user)
    return {
        user
        for user, cells in trajectories.items()
        for t, here in infected_at.items()
        # an agent is not its own contact
        if (there := here.get(cells[t])) and there != {user}
    }


def _deliver(
    alerts: Iterable[AlertMsg],
    clients: dict[str, ClientState],
    result: SimulationResult,
) -> None:
    for alert in alerts:
        client = clients[alert.user_id]
        t, cell = client_handle_alert(client, alert)
        result.alerts[alert.user_id].append(alert)
        result.recovered.append((alert.user_id, t, cell, alert.encoding))
