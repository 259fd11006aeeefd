"""Client/server tracing protocol and simulator.

Clients continuously report encoded (time, cell) points tagged uninfected
and keep a local (t, l, e) database, each encoding as its packed uint16
row (`encoder.pack_encoding`), the row the wire carries in hex.  On
infection they re-send their recent encodings tagged infected; the server
matches those against the uninfected store at threshold tau = 2k and
pushes each matching entry's own encoding back to its reporter, who
recovers (t, l) locally.
"""

from __future__ import annotations

import logging
import math
import random
import selectors
import socket
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .encoder import (
    Params,
    encode,
    format_encoding,
    inflate,
    pack_encoding,
    parse_encoding,
    unpack_encoding,
)
from .matcher import MatchIndex

UNINFECTED = "uninfected"
INFECTED = "infected"
POSSIBLE_INFECTION = "possible-infection"


class ProtocolError(ValueError):
    """Malformed wire message; connection-level reject."""


class UnknownEncodingError(KeyError):
    """Alert for an encoding this client never emitted (misrouted alert)."""


class OutOfBoundsError(ValueError):
    """Position or time outside the configured grid."""


@dataclass(frozen=True)
class ReportMsg:
    user_id: str
    tag: str  # UNINFECTED or INFECTED
    encoding: tuple[int, ...]


@dataclass(frozen=True)
class AlertMsg:
    user_id: str  # recipient
    encoding: tuple[int, ...]
    tag: str = POSSIBLE_INFECTION


@dataclass(frozen=True)
class GridSpec:
    """Discretization of space and time.

    The world packs (epoch, cell) pairs: x = epoch * cells + cell.
    Defaults are desk-scale; production scale would be ~10^14 cells at
    1 m resolution and 10^5 thirty-second epochs.
    """

    rows: int
    cols: int
    epochs: int
    lat_min: float = 0.0
    lat_max: float = 1.0
    lon_min: float = 0.0
    lon_max: float = 1.0
    epoch_seconds: float = 30.0

    def __post_init__(self):
        if min(self.rows, self.cols, self.epochs) < 1:
            raise ValueError("rows, cols and epochs must be at least 1")
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError("need lat_min < lat_max and lon_min < lon_max")
        if not self.epoch_seconds > 0:
            raise ValueError("epoch_seconds must be positive")

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def world_size(self) -> int:
        return self.cells * self.epochs


def pack(epoch: int, cell: int, grid: GridSpec) -> int:
    if not 0 <= epoch < grid.epochs:
        raise OutOfBoundsError(f"epoch {epoch} outside [0, {grid.epochs})")
    if not 0 <= cell < grid.cells:
        raise OutOfBoundsError(f"cell {cell} outside [0, {grid.cells})")
    return epoch * grid.cells + cell


def quantize(lat: float, lon: float, time_s: float, grid: GridSpec) -> int:
    """World point for a (lat, lon) position at a given time."""
    horizon = grid.epochs * grid.epoch_seconds
    if not 0 <= time_s < horizon:  # also refuses NaN and infinity
        raise OutOfBoundsError(f"time {time_s} outside [0, {horizon})")
    if not grid.lat_min <= lat <= grid.lat_max:
        raise OutOfBoundsError(f"latitude {lat} outside grid")
    if not grid.lon_min <= lon <= grid.lon_max:
        raise OutOfBoundsError(f"longitude {lon} outside grid")
    row = min(
        int((lat - grid.lat_min) / (grid.lat_max - grid.lat_min) * grid.rows),
        grid.rows - 1,
    )
    col = min(
        int((lon - grid.lon_min) / (grid.lon_max - grid.lon_min) * grid.cols),
        grid.cols - 1,
    )
    epoch = int(time_s / grid.epoch_seconds)
    return pack(epoch, row * grid.cols + col, grid)


def dilate(cell: int, radius: int, grid: GridSpec) -> list[int]:
    """All cells within Chebyshev distance `radius`, clipped at the boundary,
    in ascending order.  At radius 0 the list holds `cell` itself."""
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
    coords = format_encoding(msg.encoding)
    if isinstance(msg, ReportMsg):
        return f"REPORT\t{msg.user_id}\t{msg.tag}\t{coords}"
    return f"ALERT\t{msg.user_id}\t{msg.tag}\t{coords}"


def _excerpt(field: str, limit: int = 16) -> str:
    """repr of a refused field, cut to its first `limit` characters plus its
    length: a reason names the field without echoing a line of any size."""
    if len(field) <= limit:
        return repr(field)
    return f"{field[:limit]!r}... ({len(field)} chars)"


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
    if kind == "REPORT":
        if tag not in (UNINFECTED, INFECTED):
            raise ProtocolError(f"bad report tag: {_excerpt(tag)}")
        return ReportMsg(user_id=user_id, tag=tag, encoding=encoding)
    if kind == "ALERT":
        if tag != POSSIBLE_INFECTION:
            raise ProtocolError(f"bad alert tag: {_excerpt(tag)}")
        return AlertMsg(user_id=user_id, encoding=encoding)
    raise ProtocolError(f"unknown message kind: {_excerpt(kind)}")


# ---------------------------------------------------------------------------
# Client and server state machines.


class ClientState:
    """Local (t, l, e) database: one (t, cell, row) record per report, kept
    in report order, and the latest record of each encoding, for alerts.

    Each encoding is kept once, as its `pack_encoding` row (2n bytes), which
    the record and the alert key share; `records_between` unpacks the rows
    it returns.  At n = 20 a record costs about 425 bytes."""

    def __init__(self, user_id: str):
        self.user_id = user_id
        self._records: list[tuple[int, int, bytes]] = []
        self._by_encoding: dict[bytes, tuple[int, int, bytes]] = {}

    def __len__(self) -> int:
        return len(self._records)

    def add(self, t: int, cell: int, encoding: Sequence[int]) -> None:
        """Record that the encoding of (t, cell) was reported."""
        row = pack_encoding(encoding)
        record = (t, cell, row)
        self._records.append(record)
        self._by_encoding[row] = record

    def lookup(self, encoding: Sequence[int]) -> tuple[int, int]:
        """The (t, cell) of the latest record of an encoding.  Raises
        UnknownEncodingError for one this client never reported, including
        anything `pack_encoding` refuses."""
        try:
            t, cell, _ = self._by_encoding[pack_encoding(encoding)]
        except (KeyError, ValueError):
            raise UnknownEncodingError(encoding) from None
        return t, cell

    def records_between(
        self, t_start: int, t_end: int
    ) -> list[tuple[int, int, tuple[int, ...]]]:
        """Records with t_start <= t <= t_end, by epoch, then report order."""
        return [
            (t, cell, unpack_encoding(row))
            for t, cell, row in sorted(
                (r for r in self._records if t_start <= r[0] <= t_end),
                key=itemgetter(0),
            )
        ]


def client_tick(
    client: ClientState,
    t: int,
    cell: int,
    grid: GridSpec,
    params: Params,
    rng: random.Random,
    dilation_radius: int = 0,
    inflate_world: bool = False,
) -> list[ReportMsg]:
    """Encode the current (and dilated) position; store locally and report.

    With `inflate_world` the packed point is passed through the square-free
    inflation map first.  Small dense worlds are vulnerable to algebraic
    twin collisions (two points whose polynomials are reflections of each
    other across the evaluation grid sort to the same vector); inflation
    scatters the world over a ~10^39 range where a twin almost never lands
    on another valid point.  Parameters must then cover the inflated range.
    """
    msgs = []
    for c in dilate(cell, dilation_radius, grid):
        x = pack(t, c, grid)
        if inflate_world:
            x = inflate(x)
        e = encode(x, params, rng)
        client.add(t, c, e)
        msgs.append(ReportMsg(user_id=client.user_id, tag=UNINFECTED, encoding=e))
    return msgs


def client_report_infection(
    client: ClientState, t_start: int, t_end: int
) -> list[ReportMsg]:
    """Re-emit every stored encoding in the window, tagged infected."""
    return [
        ReportMsg(user_id=client.user_id, tag=INFECTED, encoding=e)
        for _, _, e in client.records_between(t_start, t_end)
    ]


def client_handle_alert(client: ClientState, alert: AlertMsg) -> tuple[int, int]:
    """Recover the contact's (t, l) from the alerted encoding."""
    return client.lookup(alert.encoding)


class ServerState:
    """Uninfected store + match index; infected reports are logged, not indexed.

    `handle` runs under one lock, so concurrent connections see the store,
    the infected log and the alert dedupe set change one report at a time.
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
        if msg.tag not in (UNINFECTED, INFECTED):
            raise ProtocolError(f"bad report tag: {_excerpt(str(msg.tag))}")
        with self._lock:
            if msg.tag == UNINFECTED:
                self.index.add(msg)  # keeps its fields, not the message
                return []
            hits = self.index.query(msg.encoding)  # raises before anything is logged
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
        alerts = self.server.handle(parse_message(format_message(msg)))
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


class SocketServer:
    """Newline-delimited TCP front end; each REPORT line is answered with
    the resulting ALERT lines (recipient in the message) then an OK line.

    One thread, the one in `serve_forever`, serves every connection from a
    selector loop.  Sockets never block: a reply the client does not read
    yet waits in the connection's buffer, and the server reads no more from
    that connection until the reply is sent, so a client that never reads
    neither stalls the others nor grows the server's memory.

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
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind(address)
            self.socket.listen(socket.SOMAXCONN)
            self.socket.setblocking(False)
        except OSError:
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        # one receive buffer for every connection: a fresh buffer per recv,
        # shrunk to the line, leaves holes between the store's long-lived
        # entries, and peak RSS grew by 3 MB on the tcp_row1 benchmark workload
        self._chunk = memoryview(bytearray(1 << 16))
        self._next_expiry = math.inf  # no deadline falls before it
        self._stop = False
        self._stopped = threading.Event()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve every connection until `shutdown` is called, which takes
        effect within `poll_interval` seconds."""
        self._stopped.clear()
        try:
            while not self._stop:
                now = time.monotonic()
                if now >= self._next_expiry:
                    self._expire(now)
                wait = min(poll_interval, self._next_expiry - now)
                for key, events in self._selector.select(max(wait, 0.0)):
                    if key.data is None:
                        self._accept()
                    else:
                        self._serve(key, events)
        finally:
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop `serve_forever` and wait until it has returned.  Call it from
        another thread; open connections stay open until `server_close`."""
        self._stop = True
        self._stopped.wait()

    def server_close(self) -> None:
        """Close the listening socket and every connection still open."""
        for key in list(self._selector.get_map().values()):
            if key.data is not None:
                self._close(key.data)
        self._selector.close()
        self.socket.close()

    def _accept(self) -> None:
        try:
            sock, peer = self.socket.accept()
        except OSError:  # the client gave up before the accept
            return
        sock.setblocking(False)
        conn = _Connection(sock, peer)
        self._set_deadline(conn)
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _serve(self, key: selectors.SelectorKey, events: int) -> None:
        conn = key.data
        try:
            if events & selectors.EVENT_WRITE:
                self._flush(conn)
            if events & selectors.EVENT_READ:
                self._read(conn)
        except OSError as exc:  # the peer reset or closed the connection
            self._close(conn, None if conn.discard is not None else f"connection lost: {exc}")
            return
        except Exception:  # a fault in the program: drop this client, serve the rest
            _log.exception("dropped %s:%d: internal error", *conn.peer)
            self._close(conn)
            return
        # read only when no reply waits, unless the input is being discarded
        wanted = selectors.EVENT_WRITE if conn.outbuf else 0
        if not conn.eof and (conn.discard is not None or not conn.outbuf):
            wanted |= selectors.EVENT_READ
        if not wanted:
            self._close(conn)
        elif wanted != key.events:
            self._selector.modify(conn.sock, wanted, conn)

    def _read(self, conn: _Connection) -> None:
        try:
            got = conn.sock.recv_into(self._chunk)
        except BlockingIOError:
            return
        conn.eof = not got
        if conn.discard is None:
            conn.inbuf += self._chunk[:got]
            self._answer(conn)
        else:
            conn.discard -= got
            if conn.discard <= 0:  # enough: close even if the ERROR is unsent
                conn.eof = True
                conn.outbuf.clear()

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
        # ProtocolError, UnicodeDecodeError and the store's length and range
        # checks are all ValueErrors
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
                self._close(conn)
            elif conn.outbuf:
                self._close(conn, f"reply not read within {self.idle_timeout} s")
            else:
                self._close(conn, f"no complete line within {self.idle_timeout} s")

    def _close(self, conn: _Connection, reason: str | None = None) -> None:
        if reason is not None:
            _log.warning("dropped %s:%d: %s", *conn.peer, reason)
        self._selector.unregister(conn.sock)
        conn.sock.close()


def send_report_over_socket(
    address: tuple[str, int], msg: ReportMsg
) -> list[AlertMsg]:
    """One-shot client: send a report line, read alerts until the OK line.

    Raises ProtocolError on an ERROR line or when the stream ends before OK,
    so a report the server did not accept never looks accepted."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as conn:
        conn.connect(address)
        conn.sendall((format_message(msg) + "\n").encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        alerts, rest = [], b""
        while True:
            got = conn.recv(1 << 16)
            *lines, rest = (rest + got).split(b"\n")
            if not got and rest:
                lines.append(rest)  # the stream ended inside a line
            for raw in lines:
                line = raw.decode("utf-8")
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
    """What a simulation did: each agent's trail, the alerts each agent got,
    the (t, cell) every alert recovered, the true contacts the alerts are
    checked against, and the server with its store and infected log."""

    trajectories: dict[str, list[int]]  # user -> cell per epoch
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

    `infections` holds (user_id, epoch) pairs with 0 <= epoch < grid.epochs;
    `window` (>= 0) limits how far back an infected agent re-reports
    (defaults to the whole horizon).  The result holds the trails, the
    alerts and what each recovered, the true contacts and the server.
    """
    if agents < 1:
        raise ValueError(f"need at least one agent, got {agents}")
    rng = random.Random(seed)
    users = [f"u{i}" for i in range(agents)]
    clients = {u: ClientState(u) for u in users}
    server = ServerState(n=params.n, tau=params.tau)
    transport = InProcessTransport(server)

    positions = {u: rng.randrange(grid.cells) for u in users}
    trajectories: dict[str, list[int]] = {u: [] for u in users}
    result = SimulationResult(
        trajectories=trajectories, alerts={u: [] for u in users}, server=server
    )
    if window is not None and window < 0:
        raise ValueError(f"negative reporting window {window}")
    infections_by_epoch: dict[int, list[str]] = defaultdict(list)
    for user, epoch in infections:
        if user not in clients:
            raise ValueError(f"unknown infected user {user!r}")
        if not 0 <= epoch < grid.epochs:
            raise ValueError(
                f"infection epoch {epoch} of {user!r} outside [0, {grid.epochs})"
            )
        infections_by_epoch[epoch].append(user)

    for t in range(grid.epochs):
        for u in users:
            positions[u] = _walk(positions[u], grid, rng)
            trajectories[u].append(positions[u])
            for msg in client_tick(
                clients[u],
                t,
                positions[u],
                grid,
                params,
                rng,
                dilation_radius,
                inflate_world,
            ):
                _deliver(transport.send_report(msg), clients, result)
        for u in infections_by_epoch.get(t, ()):
            t_start = 0 if window is None else max(0, t - window)
            for msg in client_report_infection(clients[u], t_start, t):
                _deliver(transport.send_report(msg), clients, result)

    result.contacts = _contacts(trajectories, infections, window)
    return result


def _contacts(
    trajectories: dict[str, list[int]],
    infections: Sequence[tuple[str, int]],
    window: int | None,
) -> set[str]:
    """Ground truth: everyone who shares an (epoch, cell) with an infected
    agent inside that agent's reporting window."""
    # epoch -> cell -> the infected agents there inside their window
    infected_at: dict[int, dict[int, set[str]]] = defaultdict(dict)
    for user, epoch in infections:
        cells = trajectories[user]
        for t in range(0 if window is None else max(0, epoch - window), epoch + 1):
            infected_at[t].setdefault(cells[t], set()).add(user)
    return {
        user
        for user, cells in trajectories.items()
        for t, here in infected_at.items()
        # an agent is not its own contact
        if (there := here.get(cells[t])) and there != {user}
    }


def _walk(cell: int, grid: GridSpec, rng: random.Random) -> int:
    row, col = divmod(cell, grid.cols)
    row = min(max(row + rng.randint(-1, 1), 0), grid.rows - 1)
    col = min(max(col + rng.randint(-1, 1), 0), grid.cols - 1)
    return row * grid.cols + col


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
