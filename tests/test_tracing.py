import logging
import random
import socket
import socketserver
import threading
import time
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracecloak.encoder import CODE_LIMIT, PolyCodeParams, inflate_range_bound
from tracecloak.tracing import (
    INFECTED,
    POSSIBLE_INFECTION,
    UNINFECTED,
    AlertMsg,
    ClientState,
    GridSpec,
    InProcessTransport,
    OutOfBoundsError,
    ProtocolError,
    ReportMsg,
    ServerState,
    SocketServer,
    UnknownEncodingError,
    client_handle_alert,
    client_report_infection,
    client_tick,
    dilate,
    format_message,
    pack,
    parse_message,
    quantize,
    run_simulation,
    send_report_over_socket,
)
from tracecloak.tracing import _contacts

GRID = GridSpec(rows=10, cols=10, epochs=20)
PARAMS = PolyCodeParams(M=GRID.world_size, p=101, n=20, k=2)
DET_PARAMS = PolyCodeParams(M=GRID.world_size, p=101, n=20, k=0)


def test_pack_examples():
    assert pack(0, 0, GRID) == 0
    assert pack(3, 7, GRID) == 3 * 100 + 7
    with pytest.raises(OutOfBoundsError):
        pack(20, 0, GRID)
    with pytest.raises(OutOfBoundsError):
        pack(0, 100, GRID)


def test_quantize():
    g = GridSpec(rows=10, cols=10, epochs=20)
    x1 = quantize(0.55, 0.55, 35.0, g)
    x2 = quantize(0.57, 0.58, 59.0, g)  # same cell, same epoch
    assert x1 == x2
    assert quantize(0.0, 0.0, 0.0, g) == 0
    with pytest.raises(OutOfBoundsError):
        quantize(1.5, 0.5, 0.0, g)
    horizon = g.epochs * g.epoch_seconds
    for bad_time in (-1.0, float("inf"), float("nan"), horizon):
        with pytest.raises(OutOfBoundsError):
            quantize(0.5, 0.5, bad_time, g)


def test_grid_spec_validation():
    for bad in (
        dict(rows=0, cols=10, epochs=5),
        dict(rows=10, cols=-1, epochs=5),
        dict(rows=10, cols=10, epochs=0),
        dict(rows=10, cols=10, epochs=5, lat_min=0.5, lat_max=0.5),
        dict(rows=10, cols=10, epochs=5, lon_min=1.0, lon_max=0.0),
        dict(rows=10, cols=10, epochs=5, lat_max=float("nan")),
        dict(rows=10, cols=10, epochs=5, epoch_seconds=0.0),
        dict(rows=10, cols=10, epochs=5, epoch_seconds=-30.0),
    ):
        with pytest.raises(ValueError):
            GridSpec(**bad)
    # a one-cell grid is valid and quantizes without dividing by zero
    one = GridSpec(rows=1, cols=1, epochs=1, lat_min=0.0, lat_max=1e-9)
    assert quantize(0.0, 0.5, 0.0, one) == 0


def test_dilate():
    assert dilate(55, 0, GRID) == [55]
    assert dilate(55, 1, GRID) == [44, 45, 46, 54, 55, 56, 64, 65, 66]  # interior
    assert dilate(0, 1, GRID) == [0, 1, 10, 11]  # corner
    assert dilate(99, 2, GRID) == [77, 78, 79, 87, 88, 89, 97, 98, 99]
    assert len(dilate(55, 2, GRID)) == 25
    # at radius 0 a record shares the caller's int instead of a copy of it
    wide = GridSpec(rows=3000, cols=3000, epochs=1)
    cell = int("8999999")
    assert dilate(cell, 0, wide)[0] is cell


@pytest.mark.parametrize("radius", [0, 1])
@pytest.mark.parametrize("cell", [-1, GRID.cells, GRID.cells + 5])
def test_cell_outside_the_grid_is_refused(cell, radius):
    # radius 1 used to clip such a cell onto cells the client never was in,
    # and radius 0 to report nothing without saying so
    client = ClientState("u1")
    client_tick(client, 0, 0, GRID, PARAMS, random.Random(0))
    with pytest.raises(OutOfBoundsError):
        dilate(cell, radius, GRID)
    with pytest.raises(OutOfBoundsError):
        client_tick(client, 1, cell, GRID, PARAMS, random.Random(0), radius)
    assert len(client) == 1


def test_wire_format_round_trip():
    report = ReportMsg(user_id="u1", tag=UNINFECTED, encoding=(1, 2, 3))
    assert parse_message(format_message(report)) == report
    infected = ReportMsg(user_id="u1", tag=INFECTED, encoding=(1, 2, 3))
    assert parse_message(format_message(infected)) == infected
    alert = AlertMsg(user_id="u2", encoding=(4, 5, 6))
    parsed = parse_message(format_message(alert))
    assert parsed == alert
    assert parsed.tag == POSSIBLE_INFECTION


@pytest.mark.parametrize(
    "line",
    [
        "REPORT\tu1\tuninfected",  # missing field
        # decimal coordinate lists, which are not encodings
        "REPORT\tu1\tbogus\t1,2,3",
        "ALERT\tu1\tuninfected\t1,2,3",
        "PING\tu1\tuninfected\t1,2,3",
        "REPORT\tu1\tuninfected\t1,x,3",
        "REPORT\tu1\tbogus\t000100020003",  # bad tag
        "ALERT\tu1\tuninfected\t000100020003",  # wrong tag for alert
        "PING\tu1\tuninfected\t000100020003",  # unknown kind
        "REPORT\tu1\tuninfected\t00010x020003",  # not a hex digit
    ],
)
def test_wire_format_rejects_malformed(line):
    with pytest.raises(ProtocolError):
        parse_message(line)


_users = st.one_of(
    st.text(st.characters(blacklist_characters="\t"), max_size=8),
    st.text("u\n\r ", max_size=4),  # makes user ids with a newline common
)
_encodings = st.lists(
    st.one_of(st.integers(0, 600), st.integers(0, 2**16 + 1), st.integers()),
    min_size=1,
    max_size=12,
).map(tuple)
_messages = st.one_of(
    st.builds(
        ReportMsg,
        user_id=_users,
        tag=st.sampled_from([UNINFECTED, INFECTED]),
        encoding=_encodings,
    ),
    st.builds(AlertMsg, user_id=_users, encoding=_encodings),
)


@settings(max_examples=300, deadline=None)
@given(_messages)
def test_wire_format_round_trip_property(msg):
    """parse . format is the identity, except that a user id holding a
    newline is refused, as the TCP server refuses the two lines it reads,
    and that an encoding with a coordinate outside [0, CODE_LIMIT) cannot
    be written."""
    if not all(0 <= c < CODE_LIMIT for c in msg.encoding):
        with pytest.raises(ValueError):
            format_message(msg)
    elif "\n" in msg.user_id:
        with pytest.raises(ProtocolError):
            parse_message(format_message(msg))
    else:
        assert parse_message(format_message(msg)) == msg


_hex_fields = _encodings.map(lambda e: "".join(f"{c:04x}" for c in e if 0 <= c < CODE_LIMIT))
_fields = st.one_of(
    st.sampled_from(["REPORT", "ALERT", "PING", UNINFECTED, INFECTED, POSSIBLE_INFECTION]),
    _encodings.map(lambda e: ",".join(map(str, e))),
    _hex_fields,
    st.text(max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.lists(_fields, min_size=1, max_size=5).map("\t".join),
        # four fields in message order, so that many lines are accepted
        st.tuples(
            st.sampled_from(["REPORT", "ALERT"]),
            _users,
            st.sampled_from([UNINFECTED, INFECTED, POSSIBLE_INFECTION]),
            _hex_fields,
        ).map("\t".join),
    )
)
def test_parse_message_gives_message_or_protocol_error(line):
    try:
        msg = parse_message(line)
    except ProtocolError:
        return
    assert isinstance(msg, (ReportMsg, AlertMsg))
    assert parse_message(format_message(msg)) == msg


def test_client_tick_and_local_db():
    rng = random.Random(0)
    client = ClientState("u1")
    msgs = client_tick(client, 3, 42, GRID, PARAMS, rng)
    assert len(msgs) == 1
    assert msgs[0].tag == UNINFECTED
    assert client.lookup(msgs[0].encoding) == (3, 42)

    msgs = client_tick(client, 4, 55, GRID, PARAMS, rng, dilation_radius=1)
    assert len(msgs) == 9
    assert len(client) == 10


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=20),
    st.integers(-1, 6),
    st.integers(-1, 6),
)
# out of epoch order, and with k = 0 a repeated tick repeats its encoding
@example(ticks=[(3, 5), (1, 7), (3, 9), (3, 5), (1, 7)], t_start=0, t_end=19)
@example(ticks=[(3, 5), (1, 7), (3, 9), (3, 5), (1, 7)], t_start=2, t_end=3)
def test_records_between_equals_per_epoch_lists(ticks, t_start, t_end):
    """The same records, in the same order (by epoch, then report order), as
    a dict of per-epoch lists."""
    rng = random.Random(1)
    client = ClientState("u1")
    by_time = defaultdict(list)
    for t, c in ticks:
        (msg,) = client_tick(client, t, c, GRID, DET_PARAMS, rng)
        by_time[t].append((t, c, msg.encoding))
    expected = [r for t in sorted(by_time) if t_start <= t <= t_end for r in by_time[t]]
    assert client.records_between(t_start, t_end) == expected
    assert len(client) == len(ticks)


def test_lookup_returns_the_latest_record_of_an_encoding():
    # (1, 0) on GRID and (2, 0) on a grid of half the cells pack to one world
    # point, so with k = 0 both ticks report one encoding
    half = GridSpec(rows=5, cols=10, epochs=40)
    rng = random.Random(2)
    client = ClientState("u1")
    (first,) = client_tick(client, 1, 0, GRID, DET_PARAMS, rng)
    assert client.lookup(first.encoding) == (1, 0)
    (second,) = client_tick(client, 2, 0, half, DET_PARAMS, rng)
    assert second.encoding == first.encoding
    assert client.lookup(first.encoding) == (2, 0)
    assert client.records_between(0, 5) == [(1, 0, first.encoding), (2, 0, first.encoding)]


def test_deterministic_mode_same_cell_same_encoding():
    rng_a, rng_b = random.Random(1), random.Random(2)
    a, b = ClientState("a"), ClientState("b")
    (msg_a,) = client_tick(a, 5, 10, GRID, DET_PARAMS, rng_a)
    (msg_b,) = client_tick(b, 5, 10, GRID, DET_PARAMS, rng_b)
    assert msg_a.encoding == msg_b.encoding


def test_client_report_infection_window():
    rng = random.Random(3)
    client = ClientState("u1")
    for t in range(5):
        client_tick(client, t, t, GRID, PARAMS, rng)
    assert client_report_infection(client, 5, 4) == []
    full = client_report_infection(client, 0, 4)
    assert len(full) == 5
    assert all(m.tag == INFECTED for m in full)
    window = client_report_infection(client, 2, 3)
    assert len(window) == 2
    assert len(client) == 5  # local db unchanged


def test_client_handle_alert_unknown():
    client = ClientState("u1")
    with pytest.raises(UnknownEncodingError):
        client_handle_alert(client, AlertMsg(user_id="u1", encoding=(1,) * 20))


def test_lookup_refuses_what_it_cannot_have_stored():
    """An encoding that cannot be packed is as unknown as one never reported:
    UnknownEncodingError, never ValueError or struct.error."""
    client = ClientState("u1")
    (msg,) = client_tick(client, 3, 42, GRID, PARAMS, random.Random(0))
    e = msg.encoding
    for bad in ((), (CODE_LIMIT,) + e[1:], (-1,) + e[1:], (1.5,) + e[1:], e + (0,)):
        with pytest.raises(UnknownEncodingError):
            client.lookup(bad)
    assert client.lookup(list(e)) == (3, 42)


def test_client_keeps_a_record_in_few_bytes():
    """40 clients for 50 epochs at the sim workload's parameters: each
    record keeps its encoding once, as 2n bytes, not as a tuple of ints
    (about 420 bytes a record, against about 860 with the tuple)."""
    grid = GridSpec(rows=100, cols=100, epochs=50)
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)
    rng = random.Random(5)
    client_tick(ClientState("warm"), 0, 0, grid, params, rng, inflate_world=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clients = [ClientState(f"u{i}") for i in range(40)]
        for t in range(grid.epochs):
            for client in clients:
                cell = rng.randrange(grid.cells)
                client_tick(client, t, cell, grid, params, rng, inflate_world=True)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = sum(len(client) for client in clients)
    assert records == 2000
    assert used / records < 600


def test_server_flow_co_location():
    rng = random.Random(4)
    alice, bob = ClientState("alice"), ClientState("bob")
    server = ServerState(n=PARAMS.n, tau=PARAMS.tau)

    # both at (t=2, cell=33)
    (ra,) = client_tick(alice, 2, 33, GRID, PARAMS, rng)
    (rb,) = client_tick(bob, 2, 33, GRID, PARAMS, rng)
    assert server.handle(ra) == []
    assert server.handle(rb) == []
    assert server.store_size == 2

    alerts = []
    for msg in client_report_infection(bob, 0, 2):
        alerts.extend(server.handle(msg))
    assert [a.user_id for a in alerts] == ["alice"]
    assert client_handle_alert(alice, alerts[0]) == (2, 33)
    # infected reports do not enter the uninfected store
    assert server.store_size == 2
    assert len(server.infected_log) == 1


def test_server_isolated_infection_no_alerts():
    rng = random.Random(5)
    loner = ClientState("loner")
    server = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    for t in range(3):
        for msg in client_tick(loner, t, t * 7, GRID, PARAMS, rng):
            server.handle(msg)
    alerts = []
    for msg in client_report_infection(loner, 0, 2):
        alerts.extend(server.handle(msg))
    assert alerts == []


def test_server_deduplicates_alerts():
    rng = random.Random(6)
    alice, bob = ClientState("alice"), ClientState("bob")
    server = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    (ra,) = client_tick(alice, 2, 33, GRID, PARAMS, rng)
    server.handle(ra)
    (rb,) = client_tick(bob, 2, 33, GRID, PARAMS, rng)
    server.handle(rb)
    first = []
    second = []
    for msg in client_report_infection(bob, 0, 2):
        first.extend(server.handle(msg))
    for msg in client_report_infection(bob, 0, 2):
        second.extend(server.handle(msg))
    assert [a.user_id for a in first] == ["alice"]
    assert second == []


def test_server_rejects_malformed():
    server = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    with pytest.raises(ProtocolError):
        server.handle(ReportMsg(user_id="x", tag="bogus", encoding=(0,) * PARAMS.n))
    # an infected report is refused as an uninfected one is, before it is
    # logged, even when the store holds an entry within tau of it
    server = ServerState(n=3, tau=2)
    server.handle(ReportMsg("a", UNINFECTED, (1, 2, 3)))
    for coords in ((1, 2, 70000), (1, 2, -5)):
        for tag in (UNINFECTED, INFECTED):
            with pytest.raises(ValueError, match="at position 2"):
                server.handle(ReportMsg("b", tag, coords))
    assert server.store_size == 1
    assert server.infected_log == []
    assert [a.user_id for a in server.handle(ReportMsg("b", INFECTED, (1, 2, 4)))] == ["a"]


def test_in_process_transport_round_trips_wire_format():
    rng = random.Random(7)
    server = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    transport = InProcessTransport(server)
    client = ClientState("u1")
    (msg,) = client_tick(client, 0, 5, GRID, PARAMS, rng)
    assert transport.send_report(msg) == []
    assert server.store_size == 1


def test_in_process_transport_refuses_an_alert():
    """An ALERT sent as a report is refused as the TCP server refuses it with
    ERROR: a ProtocolError, and nothing stored or logged."""
    server = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    transport = InProcessTransport(server)
    with pytest.raises(ProtocolError):
        transport.send_report(AlertMsg(user_id="u1", encoding=tuple(range(PARAMS.n))))
    assert server.store_size == 0
    assert server.infected_log == []


def test_newline_in_a_user_id_is_refused_by_both_transports():
    """The TCP server reads a newline as the end of a line, so a report whose
    user id holds one is refused in process too, and stored by neither."""
    msg = ReportMsg(user_id="u\n1", tag=UNINFECTED, encoding=tuple(range(PARAMS.n)))
    state = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    with pytest.raises(ProtocolError):
        InProcessTransport(state).send_report(msg)
    server = SocketServer(("127.0.0.1", 0), state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with pytest.raises(ProtocolError):
            send_report_over_socket(server.server_address, msg)
    finally:
        server.shutdown()
        server.server_close()
    assert state.store_size == 0
    assert state.infected_log == []


def test_socket_transport():
    rng = random.Random(8)
    state = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    server = SocketServer(("127.0.0.1", 0), state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        addr = server.server_address
        alice, bob = ClientState("alice"), ClientState("bob")
        (ra,) = client_tick(alice, 2, 33, GRID, PARAMS, rng)
        assert send_report_over_socket(addr, ra) == []
        (rb,) = client_tick(bob, 2, 33, GRID, PARAMS, rng)
        assert send_report_over_socket(addr, rb) == []
        alerts = []
        for msg in client_report_infection(bob, 0, 2):
            alerts.extend(send_report_over_socket(addr, msg))
        assert [a.user_id for a in alerts] == ["alice"]
        assert client_handle_alert(alice, alerts[0]) == (2, 33)
    finally:
        server.shutdown()
        server.server_close()


def _exchange(address, data: bytes) -> bytes:
    """Send raw bytes on one connection and read the reply to its end."""
    with socket.create_connection(address, timeout=10) as conn:
        conn.sendall(data)
        conn.shutdown(socket.SHUT_WR)
        with conn.makefile("rb") as reply:
            return reply.read()


def test_socket_server_rejects_bad_reports_and_keeps_serving():
    state = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    server = SocketServer(("127.0.0.1", 0), state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        addr = server.server_address
        coords = ",".join(["1"] * PARAMS.n)
        hexed = "0001" * PARAMS.n
        bad_lines = [
            f"REPORT\tu1\t{UNINFECTED}\t1,2,3\n".encode(),  # decimal, wrong length
            f"REPORT\tu1\t{INFECTED}\t1,2,3\n".encode(),
            f"REPORT\tu1\t{UNINFECTED}\t70000,{coords[2:]}\n".encode(),  # range
            f"REPORT\tu1\t{INFECTED}\t70000,{coords[2:]}\n".encode(),
            f"REPORT\tu1\t{INFECTED}\t-5,{coords[2:]}\n".encode(),
            f"ALERT\tu1\t{POSSIBLE_INFECTION}\t{hexed}\n".encode(),  # not a report
            b"REPORT\tu1\t\xff\xfe\n",  # not UTF-8
            f"REPORT\tu1\t{INFECTED}\t{hexed[:-1]}\n".encode(),  # 3 hex digits last
            f"REPORT\tu1\t{INFECTED}\t{hexed}0\n".encode(),  # 5 hex digits last
            f"REPORT\tu1\t{INFECTED}\t{hexed[:8]} {hexed[9:]}\n".encode(),  # a space
            f"REPORT\tu1\t{INFECTED}\t0X01{hexed[4:]}\n".encode(),  # 0X-style
            f"REPORT\tu1\t{INFECTED}\t\n".encode(),  # empty field
            f"REPORT\tu1\t{UNINFECTED}\t{hexed}0001\n".encode(),  # length n + 1
            f"REPORT\tu1\t{INFECTED}\t{hexed[4:]}\n".encode(),  # length n - 1
        ]
        for line in bad_lines:
            assert _exchange(addr, line).startswith(b"ERROR\t")
        with pytest.raises(ProtocolError):
            send_report_over_socket(addr, ReportMsg("u1", UNINFECTED, (1, 2, 3)))
        assert state.store_size == 0
        assert state.infected_log == []
        ok = ReportMsg("u1", UNINFECTED, tuple(range(PARAMS.n)))
        assert send_report_over_socket(addr, ok) == []
        assert state.store_size == 1
    finally:
        server.shutdown()
        server.server_close()


def _serving(state, **limits):
    server = SocketServer(("127.0.0.1", 0), state)
    for name, value in limits.items():
        setattr(server, name, value)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def test_socket_server_drops_idle_client():
    state = ServerState(n=3, tau=0)
    server = _serving(state, idle_timeout=0.2)
    try:
        with socket.create_connection(server.server_address, timeout=10) as idle:
            idle.sendall(b"REPORT\tu1")  # no newline, then nothing
            start = time.monotonic()
            assert idle.recv(1024) == b""  # the server closed the connection
            assert time.monotonic() - start < 5
        ok = ReportMsg("u2", UNINFECTED, (1, 2, 3))
        assert send_report_over_socket(server.server_address, ok) == []
        assert state.store_size == 1
    finally:
        server.shutdown()
        server.server_close()


def test_socket_server_drops_trickling_client():
    state = ServerState(n=3, tau=0)
    server = _serving(state, idle_timeout=0.3)
    try:
        with socket.create_connection(server.server_address, timeout=10) as slow:
            start = time.monotonic()
            closed = False
            for byte in b"REPORT\tu1\tuninfected\t" * 4:  # one byte per 50 ms
                try:
                    slow.sendall(bytes([byte]))
                except OSError:  # reset by the server
                    closed = True
                    break
                time.sleep(0.05)
            if not closed:
                slow.settimeout(5)
                try:
                    assert slow.recv(1024) == b""
                except ConnectionResetError:
                    pass
            # each byte arrives well within idle_timeout, the line does not
            assert time.monotonic() - start < 3
        ok = ReportMsg("u2", UNINFECTED, (1, 2, 3))
        assert send_report_over_socket(server.server_address, ok) == []
        assert state.store_size == 1
    finally:
        server.shutdown()
        server.server_close()


def test_socket_server_caps_line_length():
    state = ServerState(n=3, tau=0)
    line = format_message(ReportMsg("u1", UNINFECTED, (1, 2, 3))) + "\n"
    server = _serving(state, max_line=len(line) - 1)
    try:
        reply = _exchange(server.server_address, line.encode())
        assert reply.startswith(b"ERROR\tline longer than")
        assert reply.count(b"\n") == 1  # the connection closed after ERROR
        # the server reads and drops the rest of the line, so no reset
        # destroys the ERROR before the client reads it
        reply = _exchange(server.server_address, b"x" * 10**6 + b"\n")
        assert reply.startswith(b"ERROR\tline longer than")
        assert reply.count(b"\n") == 1
        assert state.store_size == 0
        short = ReportMsg("u", UNINFECTED, (1, 2, 3))  # one byte shorter
        assert send_report_over_socket(server.server_address, short) == []
        assert state.store_size == 1
    finally:
        server.shutdown()
        server.server_close()
    server = _serving(state, max_line=len(line))  # a line of exactly max_line
    try:
        assert _exchange(server.server_address, line.encode()) == b"OK\n"
        assert state.store_size == 2
    finally:
        server.shutdown()
        server.server_close()


# each field is well formed half the time, so many lines reach the store and
# infected ones raise alerts; the rest, and raw bytes, carry non-UTF-8, \r,
# NUL, and lines past the server's max_line of 64
_coordinates = st.one_of(
    st.lists(st.integers(0, 4).map(b"%04x".__mod__), min_size=3, max_size=3),
    st.lists(
        st.sampled_from([b"0000", b"ffff", b"FFFF", b"10000", b"000", b"-001", b"0x01", b" 001", b"1,2"]),
        min_size=3,
        max_size=3,
    ),
    st.lists(st.one_of(st.integers(0, 9).map(b"%04x".__mod__), st.binary(max_size=4)), max_size=4),
).map(b"".join)
_wire_lines = st.one_of(
    st.tuples(
        st.one_of(st.just(b"REPORT"), st.sampled_from([b"ALERT", b"report", b""])),
        st.one_of(st.sampled_from([b"u1", b"u2"]), st.binary(max_size=4)),
        st.one_of(
            st.sampled_from([UNINFECTED.encode(), INFECTED.encode()]),
            st.sampled_from([POSSIBLE_INFECTION.encode(), b"", b"infected\r"]),
        ),
        _coordinates,
    ).map(b"\t".join),
    st.binary(min_size=1, max_size=63),
    st.binary(min_size=64, max_size=200),
).map(lambda line: line.replace(b"\n", b"")).filter(bool)


def test_socket_server_answers_any_byte_line():
    """Every line gets OK, possibly after ALERT lines, or exactly one ERROR
    line, and the server keeps serving good reports after it."""
    state = ServerState(n=3, tau=1)
    server = _serving(state, max_line=64)
    addr = server.server_address
    good = ReportMsg("good", UNINFECTED, (1, 2, 3))

    @settings(max_examples=300, deadline=None)
    @given(_wire_lines, st.sampled_from([b"\n", b""]))
    def check(line, end):
        lines = _exchange(addr, line + end).split(b"\n")
        assert lines.pop() == b""  # every reply line ends in a newline
        if lines[-1].startswith(b"ERROR\t"):
            assert len(lines) == 1
        else:
            assert lines[-1] == b"OK"
            assert all(reply.startswith(b"ALERT\t") for reply in lines[:-1])
        assert send_report_over_socket(addr, good) == []

    try:
        check()
    finally:
        server.shutdown()
        server.server_close()


def test_client_raises_when_stream_ends_without_ok():
    class ClosesEarly(socketserver.StreamRequestHandler):
        def handle(self):
            self.rfile.readline()  # read the report, answer nothing

    server = socketserver.TCPServer(("127.0.0.1", 0), ClosesEarly)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        msg = ReportMsg("u1", UNINFECTED, tuple(range(PARAMS.n)))
        with pytest.raises(ProtocolError, match="before OK"):
            send_report_over_socket(server.server_address, msg)
    finally:
        server.shutdown()
        server.server_close()


def test_idle_connections_do_not_delay_a_report():
    """Idle clients hold sockets, not threads, and wait beside the others."""
    state = ServerState(n=3, tau=0)
    server = _serving(state)
    threads = threading.active_count()
    idle = [socket.create_connection(server.server_address, timeout=10) for _ in range(50)]
    try:
        for conn in idle[::2]:
            conn.sendall(b"REPORT\tu1")  # half a line, then nothing
        start = time.monotonic()
        ok = ReportMsg("u2", UNINFECTED, (1, 2, 3))
        assert send_report_over_socket(server.server_address, ok) == []
        assert time.monotonic() - start < 1
        assert threading.active_count() == threads
    finally:
        for conn in idle:
            conn.close()
        server.shutdown()
        server.server_close()


def test_client_that_never_reads_does_not_stall_others():
    state = ServerState(n=3, tau=0)
    server = _serving(state)
    # accepted sockets inherit the listener's buffer sizes: with small ones,
    # the pipelined replies below overflow what the kernel holds for them
    server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    line = (format_message(ReportMsg("pipe", UNINFECTED, (1, 2, 3))) + "\n").encode()
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as pipe:
            pipe.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            pipe.connect(server.server_address)
            pipe.setblocking(False)
            sent, deadline = 0, time.monotonic() + 10
            while time.monotonic() < deadline:  # until the server stops reading
                try:
                    sent += pipe.send(line * 1000)
                except BlockingIOError:
                    break
            else:
                pytest.fail("the server read everything without its replies being read")
            start = time.monotonic()
            ok = ReportMsg("other", UNINFECTED, (4, 5, 6))
            assert send_report_over_socket(server.server_address, ok) == []
            assert time.monotonic() - start < 1
            # back-pressure: the server stopped reading this client when its
            # replies backed up, so most of its reports wait unread
            handled, settled = -1, state.store_size
            while settled != handled and time.monotonic() < deadline:
                handled = settled
                time.sleep(0.2)
                settled = state.store_size
            assert handled == settled < sent // len(line) // 2
    finally:
        server.shutdown()
        server.server_close()


def test_pipelined_reports_are_answered_in_order():
    state = ServerState(n=3, tau=0)
    server = _serving(state)
    reports = [
        ReportMsg("a", UNINFECTED, (1, 2, 3)),
        ReportMsg("b", UNINFECTED, (4, 5, 6)),
        ReportMsg("c", INFECTED, (4, 5, 6)),
        ReportMsg("c", INFECTED, (1, 2, 3)),
        ReportMsg("c", INFECTED, (7, 8, 9)),
    ]
    try:
        data = "".join(format_message(r) + "\n" for r in reports).encode()
        reply = _exchange(server.server_address, data).decode().splitlines()
        assert reply == [
            "OK",
            "OK",
            format_message(AlertMsg("b", (4, 5, 6))),
            "OK",
            format_message(AlertMsg("a", (1, 2, 3))),
            "OK",
            "OK",
        ]
    finally:
        server.shutdown()
        server.server_close()


def test_server_close_closes_open_connections():
    state = ServerState(n=3, tau=0)
    server = SocketServer(("127.0.0.1", 0), state)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    clients = [socket.create_connection(server.server_address, timeout=10) for _ in range(3)]
    try:
        for i, conn in enumerate(clients):  # each one is accepted and served
            conn.sendall((format_message(ReportMsg(f"u{i}", UNINFECTED, (i, i, i))) + "\n").encode())
            assert conn.recv(16) == b"OK\n"
        clients[0].sendall(b"REPORT\tu9")  # half a line

        def close():
            server.shutdown()
            server.server_close()

        closing = threading.Thread(target=close)
        closing.start()
        closing.join(timeout=10)
        assert not closing.is_alive()
        thread.join(timeout=10)
        assert not thread.is_alive()
        for conn in clients:
            try:
                assert conn.recv(16) == b""
            except ConnectionResetError:  # closed with the half line unread
                pass
    finally:
        for conn in clients:
            conn.close()


def _server_records(caplog):
    return [r for r in caplog.records if r.name == "tracecloak.server"]


def test_dropped_idle_connection_is_logged_once(caplog):
    caplog.set_level(logging.WARNING, logger="tracecloak.server")
    state = ServerState(n=3, tau=0)
    server = _serving(state, idle_timeout=0.2)
    try:
        ok = ReportMsg("u2", UNINFECTED, (1, 2, 3))
        assert send_report_over_socket(server.server_address, ok) == []
        assert _server_records(caplog) == []  # nothing on the OK path
        with socket.create_connection(server.server_address, timeout=10) as idle:
            idle.sendall(b"REPORT\tu1")
            assert idle.recv(1024) == b""
        (record,) = _server_records(caplog)
        assert "no complete line within 0.2 s" in record.getMessage()
    finally:
        server.shutdown()
        server.server_close()


def test_over_long_line_is_logged_once(caplog):
    caplog.set_level(logging.WARNING, logger="tracecloak.server")
    state = ServerState(n=3, tau=0)
    server = _serving(state, max_line=64)
    try:
        reply = _exchange(server.server_address, b"x" * 10**5 + b"\n")
        assert reply == b"ERROR\tline longer than 64 bytes\n"
        (record,) = _server_records(caplog)
        assert record.getMessage().endswith("line longer than 64 bytes")
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("field", ["kind", "tag", "coords"])
def test_a_refused_field_is_not_echoed_in_full(caplog, field):
    """A 60,000-character field gets one short ERROR line and one short
    warning, which name the field's start and its length."""
    caplog.set_level(logging.WARNING, logger="tracecloak.server")
    long = "\x01x" * 30_000  # repr writes each \x01 as four characters
    fields = {"kind": "REPORT", "tag": UNINFECTED, "coords": "0001" * 3}
    fields[field] = long
    line = "\t".join([fields["kind"], "u1", fields["tag"], fields["coords"]]) + "\n"
    state = ServerState(n=3, tau=0)
    server = _serving(state)
    try:
        reply = _exchange(server.server_address, line.encode())
        assert reply.startswith(b"ERROR\t") and reply.count(b"\n") == 1
        assert len(reply) <= 256
        assert b"(60000 chars)" in reply
        (record,) = _server_records(caplog)
        assert len(record.getMessage()) <= 256
    finally:
        server.shutdown()
        server.server_close()
    assert state.store_size == 0


def test_concurrent_infected_reports_alert_once():
    """Reports racing on one stored entry must alert its owner exactly once."""

    class SlowMembership(set):
        # widens the window between the dedupe check and its update
        def __contains__(self, key):
            found = super().__contains__(key)
            time.sleep(0.001)
            return found

    state = ServerState(n=3, tau=0)
    state._alerted = SlowMembership()
    workers, rounds = 4, 20
    barrier = threading.Barrier(workers)
    alerts: list[list[AlertMsg]] = [[] for _ in range(rounds)]

    def report(worker):
        for r in range(rounds):
            if worker == 0:
                state.handle(ReportMsg("owner", UNINFECTED, (r, r, r)))
            barrier.wait(timeout=30)
            alerts[r].extend(state.handle(ReportMsg(f"w{worker}", INFECTED, (r, r, r))))

    threads = [threading.Thread(target=report, args=(w,)) for w in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert [len(a) for a in alerts] == [1] * rounds
    assert len(state.infected_log) == workers * rounds


def test_simulation_store_size_and_recall():
    grid = GridSpec(rows=8, cols=8, epochs=15)
    # dense desk-scale worlds need the inflation map: the sorted code maps
    # reflection-twin points to identical vectors, so raw 960-point packing
    # would produce spurious matches
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)
    result = run_simulation(
        agents=10,
        grid=grid,
        params=params,
        seed=11,
        infections=[("u0", 14)],
        inflate_world=True,
    )
    # every uninfected report is stored: agents * epochs at radius 0
    assert result.server.store_size == 10 * 15
    assert result.contacts <= result.alerted_users()
    infected_cells = {
        (t, cell) for t, cell in enumerate(result.trajectories["u0"])
    }
    for user, t, cell, _ in result.recovered:
        assert user != "u0"
        assert (t, cell) in infected_cells


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("window", [None, 0, 3])
def test_simulation_contacts_match_the_pairwise_scan(seed, window):
    grid = GridSpec(rows=3, cols=3, epochs=12)
    params = PolyCodeParams(M=grid.world_size, p=101, n=20, k=2)
    infections = [("u0", 5), ("u3", 11), ("u7", 8), ("u0", 9)]
    result = run_simulation(
        agents=20, grid=grid, params=params, seed=seed, infections=infections, window=window
    )
    # every agent against every infected agent, epoch by epoch; in most of
    # these cases infected agents meet each other too
    expected = set()
    for user, epoch in infections:
        t_start = 0 if window is None else max(0, epoch - window)
        for t in range(t_start, epoch + 1):
            cell = result.trajectories[user][t]
            for other in result.trajectories:
                if other != user and result.trajectories[other][t] == cell:
                    expected.add(other)
    assert result.contacts == expected


def _pairwise_contacts(trajectories, infections, window):
    expected = set()
    for user, epoch in infections:
        t_start = 0 if window is None else max(0, epoch - window)
        for t in range(t_start, epoch + 1):
            for other, cells in trajectories.items():
                if other != user and cells[t] == trajectories[user][t]:
                    expected.add(other)
    return expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_contacts_equal_the_pairwise_scan(data):
    epochs = data.draw(st.integers(1, 6))
    agents = data.draw(st.integers(1, 6))
    trail = st.lists(st.integers(0, 2), min_size=epochs, max_size=epochs)
    trajectories = {f"u{i}": data.draw(trail) for i in range(agents)}
    # few users and epochs, so infections often repeat a user or an epoch
    infection = st.tuples(st.sampled_from(sorted(trajectories)), st.integers(0, epochs - 1))
    infections = data.draw(st.lists(infection, max_size=3))
    window = data.draw(st.none() | st.integers(0, 3))
    assert _contacts(trajectories, infections, window) == _pairwise_contacts(
        trajectories, infections, window
    )


@pytest.mark.parametrize(
    "infections, window, message",
    [
        ([("u0", 4)], None, "outside"),  # grid.epochs: the agent never re-reports
        ([("u0", -1)], None, "outside"),
        ([("u0", 2)], -1, "negative reporting window"),
        ([("u9", 2)], None, "unknown infected user"),
    ],
    ids=["epoch_at_horizon", "negative_epoch", "negative_window", "unknown_user"],
)
def test_simulation_rejects_infections_it_cannot_replay(infections, window, message):
    grid = GridSpec(rows=4, cols=4, epochs=4)
    params = PolyCodeParams(M=grid.world_size, p=101, n=20, k=2)
    with pytest.raises(ValueError, match=message):
        run_simulation(
            agents=3,
            grid=grid,
            params=params,
            seed=1,
            infections=infections,
            window=window,
        )
