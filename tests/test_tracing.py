import contextlib
import dataclasses
import functools
import gc
import hashlib
import itertools
import logging
import random
import re
import socket
import socketserver
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracecloak import tracing
from tracecloak.encoder import (
    CODE_LIMIT,
    PolyCodeParams,
    corrupt,
    inflate,
    inflate_points,
    inflate_range_bound,
    sorted_code,
    sorted_codes,
)
from tracecloak.matcher import DatabaseEntry, scan_match
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
    run_simulation,
    send_report_over_socket,
)
from tracecloak.tracing import _contacts, _trails

from test_encoder import _corrupt_rows_reference

GRID = GridSpec(rows=10, cols=10, epochs=20)
PARAMS = PolyCodeParams(M=GRID.world_size, p=101, n=20, k=2)
DET_PARAMS = PolyCodeParams(M=GRID.world_size, p=101, n=20, k=0)


def _tick(client, t, cell, grid, params, rng, radius=0, inflate_world=False):
    """A lone client's tick: dilate the cell, pack each cell's point,
    inflate the points with `inflate_world`, encode and corrupt them, and
    report."""
    cells = dilate(cell, radius, grid)
    points = [pack(t, c, grid) for c in cells]
    if inflate_world:
        points = inflate_points(points)
    encodings = [corrupt(code, params.k, params.alphabet, rng) for code in sorted_codes(points, params)]
    return client_tick(client, t, cells, encodings)


def test_pack_examples():
    assert pack(0, 0, GRID) == 0
    assert pack(3, 7, GRID) == 3 * 100 + 7
    with pytest.raises(OutOfBoundsError):
        pack(20, 0, GRID)
    with pytest.raises(OutOfBoundsError):
        pack(0, 100, GRID)


def test_grid_spec_validation():
    for bad in (
        dict(rows=0, cols=10, epochs=5),
        dict(rows=10, cols=-1, epochs=5),
        dict(rows=10, cols=10, epochs=0),
    ):
        with pytest.raises(ValueError):
            GridSpec(**bad)
    assert GridSpec(rows=1, cols=1, epochs=1).world_size == 1


def test_grid_spec_keeps_python_ints():
    """A float size is refused, not floored into a fractional `pack`, and a
    numpy int is kept as a Python int, so `cells` cannot overflow."""
    for bad in (
        dict(rows=3, cols=3.5, epochs=4),
        dict(rows=3.0, cols=3, epochs=4),
        dict(rows=3, cols=3, epochs=4.0),
    ):
        with pytest.raises(TypeError):
            GridSpec(**bad)
    grid = GridSpec(np.int64(2**32), np.int64(2**32), np.int64(1))
    assert [type(v) for v in (grid.rows, grid.cols, grid.epochs)] == [int] * 3
    assert grid.cells == 2**64


def test_dilate():
    assert dilate(55, 0, GRID) == [55]
    assert dilate(55, 1, GRID) == [44, 45, 46, 54, 55, 56, 64, 65, 66]  # interior
    assert dilate(0, 1, GRID) == [0, 1, 10, 11]  # corner
    assert dilate(99, 2, GRID) == [77, 78, 79, 87, 88, 89, 97, 98, 99]
    assert len(dilate(55, 2, GRID)) == 25
    with pytest.raises(ValueError, match="non-negative"):
        dilate(55, -1, GRID)
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
    _tick(client, 0, 0, GRID, PARAMS, random.Random(0))
    with pytest.raises(OutOfBoundsError):
        dilate(cell, radius, GRID)
    with pytest.raises(OutOfBoundsError):
        _tick(client, 1, cell, GRID, PARAMS, random.Random(0), radius)
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


def test_messages_are_slotted_and_entries_slotted_and_frozen():
    """No record has a `__dict__`.  Records of different kinds built from the
    same values are unequal, and none equals the tuple of its fields."""
    e = (1, 2, 3)
    records = [
        ReportMsg("u1", UNINFECTED, e),
        AlertMsg("u1", e),
        DatabaseEntry("u1", e, UNINFECTED),
    ]
    alert, entry = records[1:]
    for a, b in itertools.combinations(records, 2):
        assert a != b and b != a
    for record in records:
        assert record != dataclasses.astuple(record)
        assert not hasattr(record, "__dict__")
    assert [[f.name for f in dataclasses.fields(r)] for r in records] == [
        ["user_id", "tag", "encoding"],
        ["user_id", "encoding"],
        ["user_id", "encoding", "tag"],
    ]
    assert alert.tag == POSSIBLE_INFECTION
    with pytest.raises(AttributeError):
        alert.tag = UNINFECTED
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.user_id = "u2"
    assert entry == DatabaseEntry("u1", e) and hash(entry) == hash(DatabaseEntry("u1", e))


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
    st.text("u\n\r\t ", max_size=4),  # makes user ids with a tab or newline common
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
    """parse . format is the identity, except that a user id holding a tab
    or a newline, which would end its field or its line early, and an
    encoding with a coordinate outside [0, CODE_LIMIT) cannot be written."""
    if not all(0 <= c < CODE_LIMIT for c in msg.encoding):
        with pytest.raises(ValueError):
            format_message(msg)
    elif "\t" in msg.user_id or "\n" in msg.user_id:
        with pytest.raises(ProtocolError, match="tab or newline in the user id"):
            format_message(msg)
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
    msgs = _tick(client, 3, 42, GRID, PARAMS, rng)
    assert len(msgs) == 1
    assert msgs[0].tag == UNINFECTED
    assert client.lookup(msgs[0].encoding) == (3, 42)

    msgs = _tick(client, 4, 55, GRID, PARAMS, rng, radius=1)
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
        (msg,) = _tick(client, t, c, GRID, DET_PARAMS, rng)
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
    (first,) = _tick(client, 1, 0, GRID, DET_PARAMS, rng)
    assert client.lookup(first.encoding) == (1, 0)
    (second,) = _tick(client, 2, 0, half, DET_PARAMS, rng)
    assert second.encoding == first.encoding
    assert client.lookup(first.encoding) == (2, 0)
    assert client.records_between(0, 5) == [(1, 0, first.encoding), (2, 0, first.encoding)]


def test_deterministic_mode_same_cell_same_encoding():
    rng_a, rng_b = random.Random(1), random.Random(2)
    a, b = ClientState("a"), ClientState("b")
    (msg_a,) = _tick(a, 5, 10, GRID, DET_PARAMS, rng_a)
    (msg_b,) = _tick(b, 5, 10, GRID, DET_PARAMS, rng_b)
    assert msg_a.encoding == msg_b.encoding


def test_client_report_infection_window():
    rng = random.Random(3)
    client = ClientState("u1")
    for t in range(5):
        _tick(client, t, t, GRID, PARAMS, rng)
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
    (msg,) = _tick(client, 3, 42, GRID, PARAMS, random.Random(0))
    e = msg.encoding
    for bad in ((), (CODE_LIMIT,) + e[1:], (-1,) + e[1:], (1.5,) + e[1:], e + (0,)):
        with pytest.raises(UnknownEncodingError):
            client.lookup(bad)
    assert client.lookup(list(e)) == (3, 42)


def test_client_keeps_a_record_in_few_bytes():
    """40 clients for 50 epochs at the sim workload's parameters: a record
    is 16 bytes of epoch and cell and a 2n-byte row in three columns, about
    70 bytes with the columns' spare room (tracemalloc, after gc.collect()).
    A (t, cell, row) tuple per record, with a bytes row and a dict entry,
    took about 224.  Without the collections the readings also counted
    about 200 bytes a record of dead 20-tuples on the tuple free list."""
    grid = GridSpec(rows=100, cols=100, epochs=50)
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)
    rng = random.Random(5)
    _tick(ClientState("warm"), 0, 0, grid, params, rng, inflate_world=True)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clients = [ClientState(f"u{i}") for i in range(40)]
        for t in range(grid.epochs):
            for client in clients:
                cell = rng.randrange(grid.cells)
                _tick(client, t, cell, grid, params, rng, inflate_world=True)
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    records = sum(len(client) for client in clients)
    assert records == 2000
    assert used / records < 100


def _columns(client):
    return (
        client._epochs.tobytes(),
        client._cells.tobytes(),
        bytes(client._rows),
        client._width,
    )


def test_lookup_skips_a_row_found_across_a_row_boundary():
    """The rows lie back to back, so the tail of one row and the head of
    the next can spell a third encoding; only an aligned match is a record."""
    client = ClientState("u1")
    client.add(1, 10, (1, 2, 3))
    client.add(2, 20, (4, 5, 6))
    for straddling in ((2, 3, 4), (3, 4, 5)):
        with pytest.raises(UnknownEncodingError):
            client.lookup(straddling)
    # an aligned copy before the straddling one is still found
    client = ClientState("u2")
    client.add(1, 10, (3, 4, 5))
    client.add(2, 20, (1, 2, 3))
    client.add(3, 30, (4, 5, 6))
    assert client.lookup((3, 4, 5)) == (1, 10)
    # a byte-level match at an odd offset straddles two coordinates
    client = ClientState("u3")
    client.add(0, 0, (0x0102, 0x0304))
    client.add(1, 1, (0x0506, 0x0708))
    with pytest.raises(UnknownEncodingError):
        client.lookup((0x0203, 0x0405))
    assert client.lookup((0x0506, 0x0708)) == (1, 1)


def test_lookup_finds_the_newest_of_repeated_records():
    client = ClientState("u1")
    for t, cell, e in [(5, 1, (7, 7)), (2, 2, (8, 8)), (9, 3, (7, 7)), (1, 4, (7, 7))]:
        client.add(t, cell, e)
    assert client.lookup((7, 7)) == (1, 4)  # report order, not the epoch
    assert client.lookup((8, 8)) == (2, 2)
    assert client.records_between(0, 9) == [
        (1, 4, (7, 7)), (2, 2, (8, 8)), (5, 1, (7, 7)), (9, 3, (7, 7))
    ]


@pytest.mark.parametrize(
    "t, cell, encoding",
    [
        (3, 4, (1, 2)),  # one coordinate short of the first record's
        (3, 4, (1, 2, 3, 4)),
        (-1, 4, (1, 2, 3)),
        (2**64, 4, (1, 2, 3)),
        (3, -1, (1, 2, 3)),
        (3, 2**64, (1, 2, 3)),
        (3, 4, ()),
        (3, 4, (1, 2, CODE_LIMIT)),
    ],
    ids=["short", "long", "t_negative", "t_2_64", "cell_negative", "cell_2_64", "empty", "wide"],
)
def test_a_refused_record_changes_no_column(t, cell, encoding):
    client = ClientState("u1")
    client.add(2**64 - 1, 2**64 - 1, (1, 2, 3))  # the widest t and cell fit
    columns = _columns(client)
    with pytest.raises(ValueError):
        client.add(t, cell, encoding)
    assert _columns(client) == columns
    assert len(client) == 1
    assert client.lookup((1, 2, 3)) == (2**64 - 1, 2**64 - 1)


def test_a_record_that_is_not_an_int_changes_no_column():
    client = ClientState("u1")
    client.add(0, 0, (1,))
    columns = _columns(client)
    for t, cell in ((1.0, 0), (0, 1.0), ("1", 0)):
        with pytest.raises(TypeError):
            client.add(t, cell, (2,))
    assert _columns(client) == columns


def test_lookup_of_an_empty_client():
    with pytest.raises(UnknownEncodingError):
        ClientState("u1").lookup((1, 2, 3))
    assert ClientState("u1").records_between(0, 10) == []


def test_server_flow_co_location():
    rng = random.Random(4)
    alice, bob = ClientState("alice"), ClientState("bob")
    server = ServerState(n=PARAMS.n, tau=PARAMS.tau)

    # both at (t=2, cell=33)
    (ra,) = _tick(alice, 2, 33, GRID, PARAMS, rng)
    (rb,) = _tick(bob, 2, 33, GRID, PARAMS, rng)
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
        for msg in _tick(loner, t, t * 7, GRID, PARAMS, rng):
            server.handle(msg)
    alerts = []
    for msg in client_report_infection(loner, 0, 2):
        alerts.extend(server.handle(msg))
    assert alerts == []


def test_server_deduplicates_alerts():
    rng = random.Random(6)
    alice, bob = ClientState("alice"), ClientState("bob")
    server = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    (ra,) = _tick(alice, 2, 33, GRID, PARAMS, rng)
    server.handle(ra)
    (rb,) = _tick(bob, 2, 33, GRID, PARAMS, rng)
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
    (msg,) = _tick(client, 0, 5, GRID, PARAMS, rng)
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


@contextlib.contextmanager
def _serving(state, **limits):
    """A SocketServer for `state`, with `limits` set on it, served from a
    thread and shut down and closed when the block ends."""
    server = SocketServer(("127.0.0.1", 0), state)
    for name, value in limits.items():
        setattr(server, name, value)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def test_newline_in_a_user_id_is_refused_by_both_transports():
    """The TCP server reads a newline as the end of a line, so a report whose
    user id holds one is refused in process too, and stored by neither."""
    msg = ReportMsg(user_id="u\n1", tag=UNINFECTED, encoding=tuple(range(PARAMS.n)))
    state = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    with pytest.raises(ProtocolError):
        InProcessTransport(state).send_report(msg)
    with _serving(state) as server:
        with pytest.raises(ProtocolError):
            send_report_over_socket(server.server_address, msg)
    assert state.store_size == 0
    assert state.infected_log == []


def test_a_report_the_store_refuses_raises_one_protocol_error_on_both_transports():
    """The store's length check surfaces in process as the TCP client reads
    it from the ERROR line: a ProtocolError with the same text, and nothing
    stored or logged."""
    state = ServerState(n=3, tau=0)
    state.handle(ReportMsg("a", UNINFECTED, (1, 2, 3)))
    with _serving(state) as server:
        over_tcp = functools.partial(send_report_over_socket, server.server_address)
        for send in (InProcessTransport(state).send_report, over_tcp):
            for tag in (UNINFECTED, INFECTED):
                with pytest.raises(ProtocolError) as raised:
                    send(ReportMsg("b", tag, (1, 2)))
                assert raised.type is ProtocolError
                assert str(raised.value) == "encoding length 2 != index length 3"
    assert state.store_size == 1
    assert state.infected_log == []


def test_a_user_id_that_holds_a_second_report_is_not_sent():
    """The id's tab and newline would make the server store an uninfected
    report from "a" and run an infected query as "b", whose alert to the
    victim goes to a connection already closed."""
    state = ServerState(n=3, tau=0)
    state.handle(ReportMsg("victim", UNINFECTED, (1, 2, 3)))
    crafted = ReportMsg("a\tuninfected\t000400050006\nREPORT\tb", INFECTED, (1, 2, 3))
    with _serving(state) as server:
        with pytest.raises(ProtocolError, match="tab or newline in the user id"):
            send_report_over_socket(server.server_address, crafted)
    assert state.store_size == 1
    assert state.infected_log == []
    assert state._alerted == set()


@pytest.mark.parametrize("tag", [UNINFECTED, INFECTED])
@pytest.mark.parametrize("user_id", ["x\ny", "x\ty"])
def test_handle_refuses_a_user_id_it_could_not_write_back(user_id, tag):
    """An alert to such an id would be a line that `parse_message` refuses,
    so the report is refused before anything is stored or queried."""
    state = ServerState(n=3, tau=0)
    with pytest.raises(ProtocolError, match="tab or newline in the user id"):
        state.handle(ReportMsg(user_id, tag, (1, 2, 3)))
    assert state.store_size == 0
    assert state.infected_log == []


def test_socket_transport():
    rng = random.Random(8)
    state = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    with _serving(state) as server:
        addr = server.server_address
        alice, bob = ClientState("alice"), ClientState("bob")
        (ra,) = _tick(alice, 2, 33, GRID, PARAMS, rng)
        assert send_report_over_socket(addr, ra) == []
        (rb,) = _tick(bob, 2, 33, GRID, PARAMS, rng)
        assert send_report_over_socket(addr, rb) == []
        alerts = []
        for msg in client_report_infection(bob, 0, 2):
            alerts.extend(send_report_over_socket(addr, msg))
        assert [a.user_id for a in alerts] == ["alice"]
        assert client_handle_alert(alice, alerts[0]) == (2, 33)


def _exchange(address, data: bytes) -> bytes:
    """Send raw bytes on one connection and read the reply to its end."""
    with socket.create_connection(address, timeout=10) as conn:
        conn.sendall(data)
        conn.shutdown(socket.SHUT_WR)
        with conn.makefile("rb") as reply:
            return reply.read()


def test_socket_server_rejects_bad_reports_and_keeps_serving():
    state = ServerState(n=PARAMS.n, tau=PARAMS.tau)
    with _serving(state) as server:
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


def test_socket_server_drops_idle_client():
    state = ServerState(n=3, tau=0)
    with _serving(state, idle_timeout=0.2) as server:
        with socket.create_connection(server.server_address, timeout=10) as idle:
            idle.sendall(b"REPORT\tu1")  # no newline, then nothing
            start = time.monotonic()
            assert idle.recv(1024) == b""  # the server closed the connection
            assert time.monotonic() - start < 5
        ok = ReportMsg("u2", UNINFECTED, (1, 2, 3))
        assert send_report_over_socket(server.server_address, ok) == []
        assert state.store_size == 1


def test_socket_server_drops_trickling_client():
    state = ServerState(n=3, tau=0)
    with _serving(state, idle_timeout=0.3) as server:
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


def test_socket_server_caps_line_length():
    state = ServerState(n=3, tau=0)
    line = format_message(ReportMsg("u1", UNINFECTED, (1, 2, 3))) + "\n"
    with _serving(state, max_line=len(line) - 1) as server:
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
    with _serving(state, max_line=len(line)) as server:  # a line of exactly max_line
        assert _exchange(server.server_address, line.encode()) == b"OK\n"
        assert state.store_size == 2


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
    with _serving(state, max_line=64) as server:
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

        check()


@contextlib.contextmanager
def _replying(data: bytes):
    """A server that reads one line, answers it with its `reply`, at first
    `data`, and closes; shut down and closed when the block ends."""

    class Replies(socketserver.StreamRequestHandler):
        def handle(self):
            self.rfile.readline()
            self.wfile.write(self.server.reply)

    server = socketserver.TCPServer(("127.0.0.1", 0), Replies)
    server.reply = data
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


def test_client_raises_when_stream_ends_without_ok():
    with _replying(b"") as server:  # read the report, answer nothing
        msg = ReportMsg("u1", UNINFECTED, tuple(range(PARAMS.n)))
        with pytest.raises(ProtocolError, match="before OK"):
            send_report_over_socket(server.server_address, msg)


_ALERT = format_message(AlertMsg("u2", tuple(range(PARAMS.n))))
_REPORT = format_message(ReportMsg("u2", UNINFECTED, tuple(range(PARAMS.n))))


@pytest.mark.parametrize(
    "reply, message",
    [
        (f"{_ALERT}\n{_ALERT[:-2]}".encode(), "bad coordinate list"),
        (f"{_REPORT}\nOK\n".encode(), "expected an ALERT line"),
        (b"\xff\xfe\n", "not UTF-8"),
    ],
    ids=["stream_ends_inside_a_line", "not_an_alert", "not_utf_8"],
)
def test_client_refuses_a_reply_other_than_alerts_then_ok(reply, message):
    with _replying(reply) as server:
        msg = ReportMsg("u1", UNINFECTED, tuple(range(PARAMS.n)))
        with pytest.raises(ProtocolError, match=message):
            send_report_over_socket(server.server_address, msg)


def _alerts_before_ok(reply: bytes):
    """The alerts a reply carries before its first OK line, or None unless
    every line before that one is an ALERT line.  A last line may lack its
    newline."""
    lines = reply.split(b"\n")
    if not lines[-1]:
        lines.pop()
    alerts = []
    for raw in lines:
        if raw == b"OK":
            return alerts
        try:
            msg = parse_message(raw.decode("utf-8"))
        except (UnicodeDecodeError, ProtocolError):
            return None
        if not isinstance(msg, AlertMsg):
            return None
        alerts.append(msg)
    return None


_codes = st.lists(st.integers(0, CODE_LIMIT - 1), min_size=1, max_size=4).map(tuple)
_alert_lines = st.builds(AlertMsg, st.sampled_from(["u2", "u3", "\r"]), _codes).map(format_message)
# a line of each kind a reply may hold; \xff is in no UTF-8 text
_reply_lines = st.one_of(
    st.one_of(
        _alert_lines,
        st.just("OK"),
        st.text(max_size=12).map("ERROR\t".__add__),
        st.builds(ReportMsg, st.just("u2"), st.sampled_from([UNINFECTED, INFECTED]), _codes)
        .map(format_message),
        st.text(max_size=12),
    ).map(str.encode),
    st.lists(st.binary(max_size=3), min_size=2, max_size=2).map(b"\xff".join),
)


def test_client_returns_the_alerts_before_ok_or_raises_protocol_error():
    """Alerts then OK gives exactly those alerts; any other reply, whatever
    its bytes, raises ProtocolError and nothing else."""
    msg = ReportMsg("u1", UNINFECTED, tuple(range(PARAMS.n)))
    with _replying(b"") as server:
        # alert lines first and OK often, so that about half the replies
        # are accepted, most of them with alerts
        @settings(max_examples=60, deadline=None)
        @given(
            st.lists(_alert_lines.map(str.encode), max_size=3),
            st.lists(st.just(b"OK") | _reply_lines, min_size=1, max_size=4),
            st.sampled_from([b"\n", b""]),
        )
        def check(alerts, lines, end):
            server.reply = b"\n".join(alerts + lines) + end
            expected = _alerts_before_ok(server.reply)
            if expected is None:
                with pytest.raises(ProtocolError):
                    send_report_over_socket(server.server_address, msg)
            else:
                assert send_report_over_socket(server.server_address, msg) == expected

        check()


def test_idle_connections_do_not_delay_a_report():
    """Idle clients hold sockets, not threads, and wait beside the others."""
    state = ServerState(n=3, tau=0)
    with _serving(state) as server:
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


def test_client_that_never_reads_does_not_stall_others():
    state = ServerState(n=3, tau=0)
    with _serving(state) as server:
        # accepted sockets inherit the listener's buffer sizes: with small ones,
        # the pipelined replies below overflow what the kernel holds for them
        server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        line = (format_message(ReportMsg("pipe", UNINFECTED, (1, 2, 3))) + "\n").encode()
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


def test_pipelined_reports_are_answered_in_order():
    state = ServerState(n=3, tau=0)
    with _serving(state) as server:
        reports = [
            ReportMsg("a", UNINFECTED, (1, 2, 3)),
            ReportMsg("b", UNINFECTED, (4, 5, 6)),
            ReportMsg("c", INFECTED, (4, 5, 6)),
            ReportMsg("c", INFECTED, (1, 2, 3)),
            ReportMsg("c", INFECTED, (7, 8, 9)),
        ]
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


def test_a_second_server_close_does_nothing():
    server = SocketServer(("127.0.0.1", 0), ServerState(n=3, tau=0))
    server.server_close()
    server.server_close()
    assert server.socket.fileno() == -1


def test_shutdown_returns_at_once_whatever_the_poll_interval():
    """`shutdown` wakes the selector: it does not wait out a 5 s select."""
    state = ServerState(n=3, tau=0)
    server = SocketServer(("127.0.0.1", 0), state)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 5})
    thread.start()
    try:
        msg = ReportMsg("u1", UNINFECTED, (1, 2, 3))
        assert send_report_over_socket(server.server_address, msg) == []
    finally:
        started = time.monotonic()
        server.shutdown()
        took = time.monotonic() - started
        server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert took < 1
    assert state.store_size == 1


def test_shutdown_after_the_loop_ended_and_server_close_returns():
    """Once `serve_forever` has returned, `shutdown` has no loop to wake,
    also after `server_close` has closed the wake-up pair."""
    server = SocketServer(("127.0.0.1", 0), ServerState(n=3, tau=0))
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.server_close()
    server.shutdown()


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
    with _serving(state, idle_timeout=0.2) as server:
        ok = ReportMsg("u2", UNINFECTED, (1, 2, 3))
        assert send_report_over_socket(server.server_address, ok) == []
        assert _server_records(caplog) == []  # nothing on the OK path
        with socket.create_connection(server.server_address, timeout=10) as idle:
            idle.sendall(b"REPORT\tu1")
            assert idle.recv(1024) == b""
        (record,) = _server_records(caplog)
        assert "no complete line within 0.2 s" in record.getMessage()


def test_over_long_line_is_logged_once(caplog):
    caplog.set_level(logging.WARNING, logger="tracecloak.server")
    state = ServerState(n=3, tau=0)
    with _serving(state, max_line=64) as server:
        reply = _exchange(server.server_address, b"x" * 10**5 + b"\n")
        assert reply == b"ERROR\tline longer than 64 bytes\n"
        (record,) = _server_records(caplog)
        assert record.getMessage().endswith("line longer than 64 bytes")


def test_a_fault_in_handle_drops_only_that_connection(caplog):
    caplog.set_level(logging.WARNING, logger="tracecloak.server")
    state = ServerState(n=3, tau=0)
    handle = state.handle

    def faulty(msg):
        if msg.user_id == "boom":
            raise RuntimeError("a fault in the program, not in the input")
        return handle(msg)

    state.handle = faulty
    with _serving(state) as server:
        boom = ReportMsg("boom", UNINFECTED, (1, 2, 3))
        with pytest.raises(ProtocolError, match="before OK"):
            send_report_over_socket(server.server_address, boom)
        ok = ReportMsg("u2", UNINFECTED, (1, 2, 3))
        assert send_report_over_socket(server.server_address, ok) == []
        assert state.store_size == 1
        (record,) = _server_records(caplog)
        assert record.levelno == logging.ERROR
        assert record.getMessage().endswith(": internal error")
        assert record.exc_info[0] is RuntimeError


def _read_line(conn: socket.socket) -> bytes:
    line = b""
    while not line.endswith(b"\n") and (got := conn.recv(1024)):
        line += got
    return line


def test_discarding_after_an_error_stops_at_the_discard_limit(monkeypatch):
    """Past DISCARD_LIMIT dropped bytes the connection closes, long before
    its idle deadline."""
    monkeypatch.setattr(tracing, "DISCARD_LIMIT", 10_000)
    state = ServerState(n=3, tau=0)
    with _serving(state, idle_timeout=30) as server:
        with socket.create_connection(server.server_address, timeout=10) as conn:
            conn.sendall(b"bad\n")
            assert _read_line(conn).startswith(b"ERROR\t")
            start = time.monotonic()
            # 5 s of these is about 2 MB, half the default limit
            with pytest.raises(OSError):  # reset or broken pipe once it closed
                while time.monotonic() - start < 5:
                    conn.sendall(b"x" * 4096)
                    time.sleep(0.01)
            assert time.monotonic() - start < 5


def test_a_client_silent_after_its_error_is_closed_at_its_deadline(caplog):
    caplog.set_level(logging.WARNING, logger="tracecloak.server")
    state = ServerState(n=3, tau=0)
    with _serving(state, idle_timeout=0.3) as server:
        with socket.create_connection(server.server_address, timeout=10) as conn:
            conn.sendall(b"bad\n")
            assert _read_line(conn).startswith(b"ERROR\t")
            assert conn.recv(1024) == b""  # the server stopped sending
            time.sleep(1.0)
            # still discarding, the server would read these; closed, it resets
            with pytest.raises(OSError):
                for _ in range(50):
                    conn.sendall(b"x")
                    time.sleep(0.02)
        (record,) = _server_records(caplog)  # the rejection; the close is quiet
        assert record.getMessage().startswith("rejected")


def test_a_client_that_never_reads_its_replies_is_dropped(caplog):
    caplog.set_level(logging.WARNING, logger="tracecloak.server")
    state = ServerState(n=3, tau=0)
    with _serving(state, idle_timeout=0.5) as server:
        server.socket.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        line = (format_message(ReportMsg("pipe", UNINFECTED, (1, 2, 3))) + "\n").encode()
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as pipe:
            pipe.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            pipe.connect(server.server_address)
            pipe.setblocking(False)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:  # until the server stops reading
                try:
                    pipe.send(line * 1000)
                except OSError:  # BlockingIOError, or dropped already
                    break
            while not _server_records(caplog) and time.monotonic() < deadline:
                time.sleep(0.05)
        (record,) = _server_records(caplog)
        assert "reply not read within 0.5 s" in record.getMessage()
        ok = ReportMsg("u2", UNINFECTED, (4, 5, 6))
        assert send_report_over_socket(server.server_address, ok) == []


class _WouldBlock:
    """A socket whose every call fails as a non-blocking one does when the
    kernel has nothing for it: no connection to accept, no byte to read,
    no room to send."""

    def accept(self):
        raise ConnectionAbortedError("the client gave up before the accept")

    def recv_into(self, buffer):
        raise BlockingIOError

    def send(self, data):
        raise BlockingIOError

    def shutdown(self, how):
        raise AssertionError("a connection whose reply is unsent is half-closed")


def _loop_snapshot(server, conn):
    selected = {key.fd: (key.events, key.data) for key in server._selector.get_map().values()}
    fields = (bytes(conn.inbuf), bytes(conn.outbuf), conn.eof, conn.discard, conn.deadline)
    return selected, server._next_expiry, fields


@pytest.mark.parametrize("step", ["_accept", "_read", "_flush"])
@pytest.mark.parametrize("discard", [None, 5])
def test_a_loop_step_that_would_block_changes_nothing(step, discard):
    """The accept, the read and the send each return at once when the
    socket would block, leaving the connection's buffers, end of input,
    discard count and deadline, the next expiry and the selector map as
    they were."""
    server = SocketServer(("127.0.0.1", 0), ServerState(n=3, tau=0))
    listener = server.socket
    try:
        conn = tracing._Connection(_WouldBlock(), ("127.0.0.1", 1))
        conn.inbuf += b"REPORT\tpart"
        conn.outbuf += b"OK\n"
        conn.discard, conn.deadline = discard, 12.5
        before = _loop_snapshot(server, conn)
        if step == "_accept":
            server.socket = _WouldBlock()
            server._accept()
        else:
            getattr(server, step)(conn)
        assert _loop_snapshot(server, conn) == before
    finally:
        server.socket = listener
        server.server_close()


def test_a_blank_line_gets_no_reply():
    state = ServerState(n=3, tau=0)
    with _serving(state) as server:
        line = (format_message(ReportMsg("u1", UNINFECTED, (1, 2, 3))) + "\n").encode()
        assert _exchange(server.server_address, b"\n") == b""
        assert _exchange(server.server_address, b"\n" + line + b"\n") == b"OK\n"
        assert state.store_size == 1


def test_a_sweep_keeps_a_connection_before_its_deadline(caplog):
    """The sweep that drops an idle connection keeps one whose deadline,
    set when it was accepted a second later, has not passed."""
    caplog.set_level(logging.WARNING, logger="tracecloak.server")
    state = ServerState(n=3, tau=0)
    with _serving(state, idle_timeout=2.0) as server:
        line = (format_message(ReportMsg("u2", UNINFECTED, (1, 2, 3))) + "\n").encode()
        with socket.create_connection(server.server_address, timeout=10) as idle:
            idle.sendall(b"REPORT\tu1")
            time.sleep(1.0)
            with socket.create_connection(server.server_address, timeout=10) as active:
                active.sendall(line[:5])
                assert idle.recv(1024) == b""  # dropped by the sweep at about 2 s
                active.sendall(line[5:])
                assert active.recv(1024) == b"OK\n"
        (record,) = _server_records(caplog)
        assert "no complete line within 2.0 s" in record.getMessage()
        assert state.store_size == 1


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
    with _serving(state) as server:
        reply = _exchange(server.server_address, line.encode())
        assert reply.startswith(b"ERROR\t") and reply.count(b"\n") == 1
        assert len(reply) <= 256
        assert b"(60000 chars)" in reply
        (record,) = _server_records(caplog)
        assert len(record.getMessage()) <= 256
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


def test_a_too_long_encoding_is_refused_by_every_layer():
    """A block-order itemgetter takes the first n coordinates of a longer
    tuple, so each layer must refuse an encoding of n + 1 coordinates whose
    first n are a stored entry's, and keep nothing of it."""
    state = ServerState(n=4, tau=1)
    stored = (1, 2, 3, 4)
    state.handle(ReportMsg("a", UNINFECTED, stored))
    index, longer = state.index, stored + (5,)
    keys = index.key_count()
    for call in (lambda: index.add(DatabaseEntry("b", longer)), lambda: index.query(longer)):
        with pytest.raises(ValueError, match="^encoding length 5 != index length 4$"):
            call()
    for send in (state.handle, InProcessTransport(state).send_report):
        for tag in (UNINFECTED, INFECTED):
            with pytest.raises(ProtocolError, match="^encoding length 5 != index length 4$"):
                send(ReportMsg("b", tag, longer))
    assert len(index) == 1
    assert index.key_count() == keys
    assert state.infected_log == []
    assert state._alerted == set()
    assert [a.user_id for a in state.handle(ReportMsg("b", INFECTED, stored))] == ["a"]


# the reasons a report is refused with, by exception type, each a pattern
# that the reason must match from its start
_REFUSALS = {
    ProtocolError: (
        r"encoding length \d+ != index length \d+$",
        r"coordinate .+ at position \d+ is not an integer",
        r"bad report tag: ",
        r"tab or newline in the user id: ",
        r"user id is not a string: \w+$",  # its type, never its value
    ),
}
# `send_report` writes the line first, and `format_message` refuses what it
# cannot write before anything reaches the server
_WRITE_REFUSALS = {
    ValueError: (r"cannot write .* as uint16", r"an encoding has at least one coordinate$"),
    ProtocolError: (r"tab or newline in the tag: ", r"tag is not a string: \w+$", *_REFUSALS[ProtocolError]),
}
_SERVER_N = 4
_coordinates = st.one_of(
    st.integers(0, 40),
    st.integers(-3, -1),
    st.integers(CODE_LIMIT, CODE_LIMIT + 2),
    st.floats(allow_nan=False, width=32),
    st.booleans(),
    st.integers(0, 40).map(np.int64),
    st.integers(CODE_LIMIT, CODE_LIMIT + 2).map(np.uint32),
)
# each field is often good, so that reports are accepted and every reason shows
_any_reports = st.builds(
    ReportMsg,
    user_id=st.sampled_from(["a", "b", "z"])
    | st.text("ab\t\n", max_size=3)
    | st.one_of(st.none(), st.integers(-1, 3), st.binary(max_size=2))
    | st.lists(st.just("a"), max_size=1).flatmap(lambda ids: st.sampled_from([ids, tuple(ids)])),
    tag=st.sampled_from([UNINFECTED, INFECTED])
    | st.sampled_from([POSSIBLE_INFECTION, "bogus", "", "in\tfected", None, 1, b"infected"]),
    encoding=st.one_of(
        st.lists(st.integers(0, 40), min_size=_SERVER_N, max_size=_SERVER_N),
        st.lists(_coordinates, min_size=_SERVER_N, max_size=_SERVER_N),
        st.lists(st.integers(0, 40), max_size=_SERVER_N + 2),
        st.lists(_coordinates, max_size=_SERVER_N + 2),
    ).map(tuple),
)


def _server_snapshot(state):
    index = state.index  # its rows too: a failed add must not leave one behind
    return state.store_size, len(state.infected_log), set(state._alerted), index.key_count(), bytes(index._codes)


@settings(max_examples=300, deadline=None)
@given(_any_reports)
@example(ReportMsg("a", UNINFECTED, (1, 2, 3, 4, 5)))
@example(ReportMsg("a", INFECTED, (1, 2, -1, 4)))
@example(ReportMsg("a\n", "bogus", (1.0,)))
@example(ReportMsg(None, INFECTED, (1, 2, 3, 4)))
@example(ReportMsg(["a"], UNINFECTED, (1, 2, 3, 4)))
@example(ReportMsg("a", None, (1, 2, 3, 4)))
def test_a_refused_report_changes_nothing(msg):
    """A report sent to `handle` or through `send_report` is either
    accepted, which adds one entry or logs one infected report, or refused
    for one of a fixed set of reasons, with the store, the infected log and
    the dedupe set as they were."""
    for send, refusals in (
        (lambda state: state.handle(msg), _REFUSALS),
        (lambda state: InProcessTransport(state).send_report(msg), _WRITE_REFUSALS),
    ):
        state = ServerState(n=_SERVER_N, tau=2)
        for user in ("a", "b"):
            state.handle(ReportMsg(user, UNINFECTED, (1, 2, 3, 4)))
        state.handle(ReportMsg("c", INFECTED, (1, 2, 3, 5)))
        before = _server_snapshot(state)
        try:
            send(state)
        except ValueError as exc:  # ProtocolError is one too
            patterns = refusals.get(type(exc), ())
            assert any(re.match(p, str(exc)) for p in patterns), repr(exc)
            assert _server_snapshot(state) == before
        else:
            size, logged = before[:2]
            grew = (1, 0) if msg.tag == UNINFECTED else (0, 1)
            assert (state.store_size - size, len(state.infected_log) - logged) == grew


def test_uninfected_adds_racing_infected_reports_are_each_seen_whole():
    """One writer adds uninfected reports, which take the index's lock
    alone, while readers re-send stored encodings as infected reports,
    which take the server's lock too.  Every encoding is stored by two
    owners and lies more than tau from every other, so the re-sends of one
    encoding alert exactly its two owners, each once, between them.  Half
    the re-sends are of the newest encoding, so that readers race each
    other on it as well as the writer's next add."""
    encodings = [(i % 3, 0, i, i + 1) for i in range(1500)]
    state = ServerState(n=4, tau=1)

    class YieldingMembership(set):
        # lets another reader in between the dedupe check and its update
        def __contains__(self, key):
            found = super().__contains__(key)
            time.sleep(0)
            return found

    state._alerted = YieldingMembership()
    failures: list = []
    added = [0]  # encodings whose two adds have returned
    done = threading.Event()
    resends: list[list] = [[] for _ in range(3)]  # per reader: (i, alerts)

    def writer():
        try:
            for i, enc in enumerate(encodings):
                state.handle(ReportMsg(f"u{i}", UNINFECTED, enc))
                state.handle(ReportMsg(f"v{i}", UNINFECTED, enc))
                added[0] = i + 1
        except Exception as exc:
            failures.append(exc)
        finally:
            done.set()

    def reader(r):
        rng = random.Random(r)
        try:
            while not done.is_set():
                if added[0]:  # the newest encoding as often as not, so readers collide
                    i = added[0] - 1 if rng.random() < 0.5 else rng.randrange(added[0])
                    resends[r].append((i, state.handle(ReportMsg(f"r{r}", INFECTED, encodings[i]))))
        except Exception as exc:  # recorded, so the main thread sees it
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(r,), daemon=True) for r in range(3)]
        threads.append(threading.Thread(target=writer, daemon=True))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    entries = state.index.entries
    assert entries == [
        DatabaseEntry(f"{owner}{i}", enc) for i, enc in enumerate(encodings) for owner in "uv"
    ]
    alerted: dict = defaultdict(list)
    for i, alerts in itertools.chain.from_iterable(resends):
        owed = [AlertMsg(e.user_id, e.encoding) for e in scan_match(entries, encodings[i], 1)]
        assert all(a in owed for a in alerts)
        alerted[i] += alerts
    assert sum(map(len, resends)) == len(state.infected_log) > 0
    for i, alerts in alerted.items():
        assert sorted(a.user_id for a in alerts) == [f"u{i}", f"v{i}"]
    assert len(state._alerted) == 2 * len(alerted)


def test_uninfected_adds_from_several_threads_are_each_stored_whole():
    """Two writers send distinct uninfected reports through `handle`, which
    takes the index's lock alone, across ten doublings of the tables, while
    readers query encodings whose add has returned.  Every encoding lies
    more than tau from every other, so each query finds its own entry, and
    at the end the store holds each report once, with all its block keys."""
    per_writer, tau = 1500, 1
    sent = [
        [ReportMsg(f"w{w}u{i}", UNINFECTED, (w, w, i, i + 1)) for i in range(per_writer)]
        for w in range(2)
    ]
    state = ServerState(n=4, tau=tau)
    failures: list = []
    added = [0, 0]  # per writer: reports whose add has returned
    done = threading.Event()
    found = [0]  # queries that found their entry

    def writer(w):
        try:
            for i, msg in enumerate(sent[w]):
                state.handle(msg)
                added[w] = i + 1
        except Exception as exc:  # recorded, so the main thread sees it
            failures.append(exc)

    def reader(r):
        rng = random.Random(r)
        try:
            while not done.is_set():
                w = rng.randrange(2)
                if added[w]:  # the newest report as often as not
                    i = added[w] - 1 if rng.random() < 0.5 else rng.randrange(added[w])
                    msg = sent[w][i]
                    hits = state.index.query(msg.encoding)
                    assert hits == [DatabaseEntry(msg.user_id, msg.encoding)], (msg, hits)
                    found[0] += 1
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [threading.Thread(target=writer, args=(w,), daemon=True) for w in range(2)]
        readers = [threading.Thread(target=reader, args=(r,), daemon=True) for r in range(2)]
        for t in writers + readers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        done.set()
        for t in readers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in writers + readers)
    assert failures == []
    assert found[0] > 0
    assert state.store_size == 2 * per_writer
    assert state.index.key_count() == (tau + 1) * state.store_size
    stored = Counter(state.index.entries)
    assert stored == Counter(DatabaseEntry(m.user_id, m.encoding) for m in sent[0] + sent[1])


def _walk_reference(cell, grid, rng):
    """The walk step with two `rng.randint(-1, 1)` draws: the reference."""
    row, col = divmod(cell, grid.cols)
    row = min(max(row + rng.randint(-1, 1), 0), grid.rows - 1)
    col = min(max(col + rng.randint(-1, 1), 0), grid.cols - 1)
    return row * grid.cols + col


def _trails_reference(starts, grid, rng):
    """Every agent's trail, one `_walk_reference` step per agent in agent
    order, epoch by epoch."""
    cells, trails = list(starts), [[] for _ in starts]
    for _ in range(grid.epochs):
        for i, trail in enumerate(trails):
            cells[i] = _walk_reference(cells[i], grid, rng)
            trail.append(cells[i])
    return trails


@st.composite
def _walk_starts(draw):
    """A grid's rows and columns, 1x1, 1xN and Nx1 among them, and 1 to 40
    start cells, each a corner or an edge cell as often as not."""
    rows, cols = draw(
        st.sampled_from([(1, 1), (1, 7), (7, 1), (1, 2), (2, 1)])
        | st.tuples(st.integers(1, 9), st.integers(1, 9))
    )
    edges = sorted(
        {r * cols + c for r in range(rows) for c in range(cols) if r in (0, rows - 1) or c in (0, cols - 1)}
    )
    cell = st.sampled_from(edges) | st.integers(0, rows * cols - 1)
    return rows, cols, draw(st.lists(cell, min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(_walk_starts(), st.integers(1, 20), st.integers(0, 2**32))
@example((2**63 - 1, 1, [0, 2**63 - 2, 2**62]), 20, 1)
@example((1, 2**63 - 1, [2**63 - 2, 0, 2**62]), 20, 1)
@example((100, 100, np.random.default_rng(35).integers(0, 10_000, 1000).tolist()), 5, 35)
def test_trails_draw_what_two_randints_draw(walk, epochs, seed):
    """Every cell of every trail is where two `randint(-1, 1)` draws a step
    put it, agent by agent and epoch by epoch, and the generator ends in the
    same state: the simulator's stream is unchanged.  Two examples walk the
    largest grids the int64 walk takes, from both edges, and one the `sim`
    walk, 1,000 agents on 100x100, so that a batch of its size is drawn."""
    rows, cols, starts = walk
    grid = GridSpec(rows=rows, cols=cols, epochs=epochs)
    rng, ref = random.Random(seed), random.Random(seed)
    trails = _trails(starts, grid, rng)
    assert all(trail.typecode == "Q" for trail in trails)
    assert [list(trail) for trail in trails] == _trails_reference(starts, grid, ref)
    assert rng.getstate() == ref.getstate()


def test_the_simulator_refuses_a_grid_its_walk_cannot_hold(monkeypatch):
    """A grid of 2^63 cells or more is refused before any draw (2^66 cells
    used to end in an OverflowError from a trail's append); 2^62 cells
    still run."""
    grid = GridSpec(rows=2**31, cols=2**31, epochs=3)
    params = PolyCodeParams(M=grid.world_size, p=503, n=20, k=2)
    result = run_simulation(4, grid, params, 3, [("u0", 2)])
    assert all(len(trail) == 3 for trail in result.trajectories.values())
    assert result.server.store_size == 4 * 3

    def refuse(*args):
        raise AssertionError("drew for a grid the walk cannot hold")

    monkeypatch.setattr(random.Random, "randrange", refuse)
    monkeypatch.setattr(random.Random, "getrandbits", refuse)
    for rows, cols in [(2**33, 2**33), (2**63, 1), (1, 2**63)]:
        grid = GridSpec(rows=rows, cols=cols, epochs=3)
        message = f"a grid of {grid.cells} cells: the walk needs fewer than 2\\^63"
        with pytest.raises(ValueError, match=message):
            run_simulation(4, grid, params, 3, [("u0", 2)])


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


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_a_dense_inflated_simulation_alerts_exactly_its_contacts(seed):
    """Criterion 7's checks on a grid dense enough that every seed has
    contacts: 200 agents on 36 cells, one of them infected at the last
    epoch and re-sending its whole trail.  Every contact is alerted, no one
    else is, and every recovered (t, cell) is on the recipient's trail and
    the infected agent's."""
    grid = GridSpec(rows=6, cols=6, epochs=10)
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)
    result = run_simulation(
        agents=200, grid=grid, params=params, seed=seed, infections=[("u0", 9)],
        inflate_world=True,
    )  # fmt: skip
    assert result.contacts
    assert result.alerted_users() == result.contacts
    infected = result.trajectories["u0"]
    for user, t, cell, _ in result.recovered:
        assert result.trajectories[user][t] == cell == infected[t]


def test_simulation_outputs_are_pinned():
    """sha256 of what a dilated, windowed run with four infections gives:
    the trails, every recovered (t, cell), each user's alert lines, the
    contacts and the store size.  A change to this digest changes what the
    simulator reports, not only how it keeps it."""
    grid = GridSpec(rows=20, cols=20, epochs=8)
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)
    result = run_simulation(
        agents=200,
        grid=grid,
        params=params,
        seed=20,
        infections=[("u0", 3), ("u7", 5), ("u42", 7), ("u199", 7)],
        dilation_radius=1,
        window=3,
        inflate_world=True,
    )
    payload = repr(
        (
            sorted((u, list(trail)) for u, trail in result.trajectories.items()),
            result.recovered,
            sorted((u, [format_message(a) for a in msgs]) for u, msgs in result.alerts.items()),
            sorted(result.contacts),
            result.server.store_size,
        )
    )
    assert len(result.recovered) == 639 and len(result.contacts) == 6
    assert result.server.store_size == 13421
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == "354528284972d6c73c9aa45500ae97c8ed13110d36f9af9e3a8844cb8ac42777"


def _reference_simulation(agents, grid, params, seed, infections, radius, window, inflate_world):
    """The simulator's order spelt out: every agent's whole trail first,
    epoch by epoch in user order; then each epoch corrupts the sorted codes
    of every dilated cell's point, in user order, from the same generator
    with the scalar replay of `corrupt_rows`'s stream, sends them in that
    order, and the epoch's infections re-send."""
    rng = random.Random(seed)
    users = [f"u{i}" for i in range(agents)]
    clients = {u: ClientState(u) for u in users}
    transport = InProcessTransport(ServerState(n=params.n, tau=params.tau))
    cells = {u: rng.randrange(grid.cells) for u in users}
    trails = {u: [] for u in users}
    alerts = {u: [] for u in users}
    recovered = []

    def send(msg):
        for alert in transport.send_report(msg):
            t, cell = clients[alert.user_id].lookup(alert.encoding)
            alerts[alert.user_id].append(alert)
            recovered.append((alert.user_id, t, cell, alert.encoding))

    for _ in range(grid.epochs):
        for u in users:
            cells[u] = _walk_reference(cells[u], grid, rng)
            trails[u].append(cells[u])
    for t in range(grid.epochs):
        points = [(u, c) for u in users for c in dilate(trails[u][t], radius, grid)]
        xs = [inflate(pack(t, c, grid)) if inflate_world else pack(t, c, grid) for _, c in points]
        codes = [sorted_code(x, params) for x in xs]
        encodings = _corrupt_rows_reference(codes, params.k, params.alphabet, rng)
        for (u, c), e in zip(points, encodings):
            clients[u].add(t, c, e)
            send(ReportMsg(u, UNINFECTED, e))
        for u, epoch in infections:
            if epoch == t:
                t_start = 0 if window is None else max(0, t - window)
                for _, _, e in clients[u].records_between(t_start, t):
                    send(ReportMsg(u, INFECTED, e))
    return trails, recovered, alerts, _pairwise_contacts(trails, infections, window)


@pytest.mark.parametrize("inflate_world", [False, True])
@pytest.mark.parametrize("window", [None, 3])
@pytest.mark.parametrize("radius", [0, 1])
def test_simulation_equals_the_reference_order(radius, window, inflate_world):
    grid = GridSpec(rows=5, cols=5, epochs=8)
    M = inflate_range_bound() if inflate_world else grid.world_size
    params = PolyCodeParams(M=M, p=503, n=20, k=2)
    infections = [("u0", 3), ("u5", 6), ("u2", 6), ("u0", 7)]
    args = (14, grid, params, 7, infections, radius, window, inflate_world)
    trails, recovered, alerts, contacts = _reference_simulation(*args)
    result = run_simulation(
        agents=14, grid=grid, params=params, seed=7, infections=infections,
        dilation_radius=radius, window=window, inflate_world=inflate_world,
    )  # fmt: skip
    assert {u: list(trail) for u, trail in result.trajectories.items()} == trails
    assert result.recovered == recovered and recovered
    assert result.alerts == alerts
    assert result.contacts == contacts


def test_simulation_trails_do_not_depend_on_the_encoding():
    """The walks are drawn before any corruption, so the parameters, the
    dilation radius and inflation change the reports but not the trails
    or the contacts."""
    grid = GridSpec(rows=6, cols=6, epochs=10)
    infections = [("u1", 4), ("u3", 9)]
    runs = [
        run_simulation(12, grid, params, 5, infections, radius, 2, inflate_world)
        for params, radius, inflate_world in [
            (PolyCodeParams(M=grid.world_size, p=101, n=20, k=2), 0, False),
            (PolyCodeParams(M=grid.world_size, p=211, n=30, k=0), 1, False),
            (PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=3), 1, True),
        ]
    ]
    first = runs[0]
    assert first.contacts
    for other in runs[1:]:
        assert other.trajectories == first.trajectories
        assert other.contacts == first.contacts
    assert runs[1].server.store_size > first.server.store_size == 12 * 10


def test_client_tick_records_and_reports_each_given_encoding():
    """Each report carries the very encoding it is given, and each record
    is that encoding at its (t, cell); a wrong number of encodings is
    refused before any record."""
    grid = GridSpec(rows=10, cols=10, epochs=20)
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)
    client, rng = ClientState("a"), random.Random(3)
    cells = dilate(55, 1, grid)
    codes = [sorted_code(inflate(pack(4, c, grid)), params) for c in cells]
    encodings = [corrupt(code, params.k, params.alphabet, rng) for code in codes]
    msgs = client_tick(client, 4, cells, encodings)
    assert msgs == [ReportMsg("a", UNINFECTED, e) for e in encodings]
    assert all(msg.encoding is e for msg, e in zip(msgs, encodings))
    assert client.records_between(0, 19) == [(4, c, e) for c, e in zip(cells, encodings)]
    with pytest.raises(ValueError, match="8 encodings for 9 cells"):
        client_tick(client, 5, cells, encodings[1:])
    assert len(client) == 9


@pytest.mark.parametrize("radius", [0, 1])
def test_the_simulator_dilates_each_agent_once_an_epoch(monkeypatch, radius):
    """One `dilate` a trail cell, epoch by epoch in user order, both for
    the epoch's batch and for the ticks."""
    grid = GridSpec(rows=6, cols=6, epochs=10)
    params = PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2)
    dilated = []

    def counted(cell, radius, grid):
        dilated.append(cell)
        return dilate(cell, radius, grid)

    monkeypatch.setattr(tracing, "dilate", counted)
    result = run_simulation(20, grid, params, 8, [("u0", 9)], radius, inflate_world=True)
    trails = list(result.trajectories.values())
    assert len(dilated) == 20 * grid.epochs
    assert dilated == [trail[t] for t in range(grid.epochs) for trail in trails]


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
    "kwargs, message",
    [
        (dict(dilation_radius=-1), "negative dilation radius -1"),
        (dict(window=-1), "negative reporting window -1"),
        (dict(infections=[("u9", 2)]), "unknown infected user 'u9'"),
    ],
    ids=["radius", "window", "unknown_user"],
)
def test_the_simulator_checks_its_arguments_before_any_draw(monkeypatch, kwargs, message):
    """A negative radius used to be refused only inside `dilate`, after every
    start cell was drawn and every trail walked; a negative window and an
    unknown infected user after the start cells were drawn."""
    def refuse(*args, **kw):
        raise AssertionError("made a generator before checking the arguments")

    monkeypatch.setattr(tracing.random, "Random", refuse)
    grid = GridSpec(rows=4, cols=4, epochs=4)
    params = PolyCodeParams(M=grid.world_size, p=101, n=20, k=2)
    with pytest.raises(ValueError, match=message):
        run_simulation(**{"agents": 3, "grid": grid, "params": params, "seed": 1, "infections": [], **kwargs})


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
