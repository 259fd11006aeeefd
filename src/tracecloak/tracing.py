"""Client/server tracing protocol and simulator.

Clients continuously report encoded (time, cell) points tagged uninfected
and keep a local (t, l, e) database.  On infection they re-send their
recent encodings tagged infected; the server matches those against the
uninfected store at threshold tau = 2k and pushes each matching entry's
own encoding back to its reporter, who recovers (t, l) locally.
"""

from __future__ import annotations

import csv
import random
import socket
import socketserver
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .encoder import Params, encode, format_encoding, inflate, parse_encoding
from .matcher import DatabaseEntry, MatchIndex

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


def unpack(x: int, grid: GridSpec) -> tuple[int, int]:
    return divmod(x, grid.cells)


def quantize(lat: float, lon: float, time_s: float, grid: GridSpec) -> int:
    """World point for a (lat, lon) position at a given time."""
    if not grid.lat_min <= lat <= grid.lat_max:
        raise OutOfBoundsError(f"latitude {lat} outside grid")
    if not grid.lon_min <= lon <= grid.lon_max:
        raise OutOfBoundsError(f"longitude {lon} outside grid")
    if time_s < 0:
        raise OutOfBoundsError("time before horizon start")
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


def dilate(cell: int, radius: int, grid: GridSpec) -> set[int]:
    """All cells within Chebyshev distance `radius`, clipped at the boundary."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    row, col = divmod(cell, grid.cols)
    out = set()
    for r in range(max(0, row - radius), min(grid.rows, row + radius + 1)):
        for c in range(max(0, col - radius), min(grid.cols, col + radius + 1)):
            out.add(r * grid.cols + c)
    return out


# ---------------------------------------------------------------------------
# Wire format: newline-delimited text, one message per line.


def format_message(msg: ReportMsg | AlertMsg) -> str:
    coords = format_encoding(msg.encoding)
    if isinstance(msg, ReportMsg):
        return f"REPORT\t{msg.user_id}\t{msg.tag}\t{coords}"
    return f"ALERT\t{msg.user_id}\t{msg.tag}\t{coords}"


def parse_message(line: str) -> ReportMsg | AlertMsg:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 4:
        raise ProtocolError(f"expected 4 fields, got {len(parts)}")
    kind, user_id, tag, coords = parts
    try:
        encoding = parse_encoding(coords)
    except ValueError:
        raise ProtocolError(f"bad coordinate list: {coords!r}") from None
    if kind == "REPORT":
        if tag not in (UNINFECTED, INFECTED):
            raise ProtocolError(f"bad report tag: {tag!r}")
        return ReportMsg(user_id=user_id, tag=tag, encoding=encoding)
    if kind == "ALERT":
        if tag != POSSIBLE_INFECTION:
            raise ProtocolError(f"bad alert tag: {tag!r}")
        return AlertMsg(user_id=user_id, encoding=encoding)
    raise ProtocolError(f"unknown message kind: {kind!r}")


# ---------------------------------------------------------------------------
# Client and server state machines.


class ClientState:
    """Local (t, l, e) database indexed by time and by encoding."""

    def __init__(self, user_id: str):
        self.user_id = user_id
        self._by_encoding: dict[tuple[int, ...], tuple[int, int]] = {}
        self._by_time: dict[int, list[tuple[int, tuple[int, ...]]]] = defaultdict(list)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_time.values())

    def lookup(self, encoding: Sequence[int]) -> tuple[int, int]:
        try:
            return self._by_encoding[tuple(encoding)]
        except KeyError:
            raise UnknownEncodingError(tuple(encoding)) from None

    def records_between(
        self, t_start: int, t_end: int
    ) -> list[tuple[int, int, tuple[int, ...]]]:
        out = []
        for t in sorted(self._by_time):
            if t_start <= t <= t_end:
                for cell, e in self._by_time[t]:
                    out.append((t, cell, e))
        return out


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
    for c in sorted(dilate(cell, dilation_radius, grid)):
        x = pack(t, c, grid)
        if inflate_world:
            x = inflate(x)
        e = encode(x, params, rng)
        client._by_encoding[e] = (t, c)
        client._by_time[t].append((c, e))
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
        if not isinstance(msg, ReportMsg) or msg.tag not in (UNINFECTED, INFECTED):
            raise ProtocolError(f"malformed report: {msg!r}")
        with self._lock:
            if msg.tag == UNINFECTED:
                self.index.add(
                    DatabaseEntry(user_id=msg.user_id, encoding=msg.encoding, tag=msg.tag)
                )
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
        parsed = parse_message(format_message(msg))
        assert isinstance(parsed, ReportMsg)
        alerts = self.server.handle(parsed)
        return [parse_message(format_message(a)) for a in alerts]  # type: ignore[misc]


def _read_lines(sock: socket.socket, limit: int, timeout: float):
    """Yield the lines arriving on sock, newline included (a last line may
    lack it).  A line longer than `limit` bytes is cut to its first
    limit + 1 for the caller to reject.

    A line must be complete within `timeout` seconds of when the reader
    starts waiting for it.  Each read is bounded by the socket's own
    timeout, and once the line is older than `timeout` the reader raises
    TimeoutError instead of reading again, so a client that trickles bytes
    is dropped too, at most 2 * timeout after the line started."""
    # one receive buffer per connection: a fresh 4 KiB buffer per recv,
    # shrunk to the line, leaves holes between the store's long-lived
    # entries, and peak RSS grew by 3 MB on the tcp_row1 benchmark workload
    buf, chunk = b"", memoryview(bytearray(4096))
    while True:
        deadline = time.monotonic() + timeout
        while not (end := buf.find(b"\n", 0, limit + 1) + 1) and len(buf) <= limit:
            if time.monotonic() > deadline:
                raise TimeoutError(f"no complete line within {timeout} s")
            got = sock.recv_into(chunk)
            if not got:
                if buf:
                    yield buf
                return
            buf += chunk[:got]
        if not end:
            yield buf[: limit + 1]
            return
        line, buf = buf[:end], buf[end:]
        yield line


DISCARD_LIMIT = 1 << 22  # bytes read and dropped after an ERROR reply


def _discard_input(sock: socket.socket, timeout: float) -> None:
    """Half-close sock and read and drop what the peer still sends, until it
    closes its side, `timeout` seconds pass or DISCARD_LIMIT bytes are gone.

    Closing a socket with unread input makes the kernel reset the
    connection, and the reset can destroy a reply the peer has not read
    yet: a client still sending an over-long line would lose its ERROR."""
    deadline, left_bytes = time.monotonic() + timeout, DISCARD_LIMIT
    chunk = bytearray(1 << 16)
    try:
        sock.shutdown(socket.SHUT_WR)
        while left_bytes > 0 and (left := deadline - time.monotonic()) > 0:
            sock.settimeout(left)
            got = sock.recv_into(chunk)
            if not got:
                return
            left_bytes -= got
    except OSError:  # timed out, or the peer reset the connection
        pass


class _LineHandler(socketserver.BaseRequestHandler):
    def handle(self):
        sock, limit, timeout = self.request, self.server.max_line, self.server.idle_timeout
        sock.settimeout(timeout)
        try:
            for raw in _read_lines(sock, limit, timeout):
                try:
                    if len(raw) > limit:
                        raise ProtocolError(f"line longer than {limit} bytes")
                    line = raw.decode("utf-8").rstrip("\n")
                    if not line:
                        continue
                    msg = parse_message(line)
                    if not isinstance(msg, ReportMsg):
                        raise ProtocolError("clients may only send reports")
                    alerts = self.server.state.handle(msg)
                # ProtocolError, UnicodeDecodeError and the store's length and
                # range checks are all ValueErrors
                except ValueError as exc:
                    sock.sendall(f"ERROR\t{exc}\n".encode("utf-8"))
                    _discard_input(sock, timeout)
                    return  # connection-level reject
                reply = "".join(format_message(alert) + "\n" for alert in alerts)
                sock.sendall((reply + "OK\n").encode("utf-8"))
        except TimeoutError:
            return  # idle or trickling client: drop it and free the thread


class SocketServer(socketserver.ThreadingTCPServer):
    """Newline-delimited TCP front end; each REPORT line is answered with
    the resulting ALERT lines (recipient in the message) then an OK line.

    A connection whose next line is not complete within `idle_timeout`
    seconds is dropped, whether it idles or trickles bytes.  A bad line, or
    one longer than `max_line` bytes (newline included), gets ERROR and ends
    the connection: the server stops sending, then reads and drops at most
    `DISCARD_LIMIT` more bytes, for at most `idle_timeout` seconds, so that
    the client can still read the ERROR line before the connection closes."""

    allow_reuse_address = True
    daemon_threads = True
    idle_timeout = 10.0  # seconds
    max_line = 1 << 16  # bytes; a report line at reference row 3 is about 700

    def __init__(self, address: tuple[str, int], state: ServerState):
        super().__init__(address, _LineHandler)
        self.state = state


def send_report_over_socket(
    address: tuple[str, int], msg: ReportMsg
) -> list[AlertMsg]:
    """One-shot client: send a report line, read alerts until the OK line.

    Raises ProtocolError on an ERROR line or when the stream ends before OK,
    so a report the server did not accept never looks accepted."""
    with socket.create_connection(address) as conn:
        conn.sendall((format_message(msg) + "\n").encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        alerts = []
        buf = conn.makefile("r", encoding="utf-8")
        for line in buf:
            line = line.rstrip("\n")
            if line == "OK":
                return alerts
            if line.startswith("ERROR\t"):
                raise ProtocolError(line.split("\t", 1)[1])
            parsed = parse_message(line)
            assert isinstance(parsed, AlertMsg)
            alerts.append(parsed)
        raise ProtocolError("connection closed before OK")


# ---------------------------------------------------------------------------
# Simulation: random walkers on a small grid with one (or more) infected
# agents re-reporting their trail at a chosen epoch.


@dataclass
class SimulationResult:
    grid: GridSpec
    trajectories: dict[str, list[int]]  # user -> cell per epoch
    alerts: dict[str, list[AlertMsg]] = field(default_factory=dict)
    # (recipient, epoch, cell, encoding) for every delivered alert
    recovered: list[tuple[str, int, int, tuple[int, ...]]] = field(
        default_factory=list
    )
    contacts: set[str] = field(default_factory=set)
    server: ServerState | None = None
    infected: list[tuple[str, int]] = field(default_factory=list)

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
    (defaults to the whole horizon).
    """
    rng = random.Random(seed)
    users = [f"u{i}" for i in range(agents)]
    clients = {u: ClientState(u) for u in users}
    server = ServerState(n=params.n, tau=params.tau)
    transport = InProcessTransport(server)

    positions = {u: rng.randrange(grid.cells) for u in users}
    trajectories: dict[str, list[int]] = {u: [] for u in users}
    result = SimulationResult(
        grid=grid,
        trajectories=trajectories,
        alerts={u: [] for u in users},
        server=server,
        infected=list(infections),
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

    # ground truth: anyone sharing an (epoch, cell) with an infected agent
    # inside that agent's reporting window
    for user, epoch in infections:
        t_start = 0 if window is None else max(0, epoch - window)
        for t in range(t_start, epoch + 1):
            cell = trajectories[user][t]
            for other in users:
                if other != user and trajectories[other][t] == cell:
                    result.contacts.add(other)
    return result


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


def write_report_csv(result: SimulationResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "epoch", "cell", "encoding"])
        for user, t, cell, encoding in result.recovered:
            writer.writerow([user, t, cell, format_encoding(encoding)])
