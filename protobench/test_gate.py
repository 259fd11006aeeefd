"""Tests of the benchmark's correctness gate: it must reject a run result
with one dropped alert and one with one extra alert.

    PYTHONPATH=src python3 -m pytest -q protobench/test_gate.py
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracecloak import tracing  # noqa: E402
from tracecloak.encoder import PolyCodeParams, encode, inflate_range_bound  # noqa: E402
from tracecloak.tracing import (  # noqa: E402
    INFECTED,
    UNINFECTED,
    AlertMsg,
    GridSpec,
    ReportMsg,
)

import gate  # noqa: E402

PARAMS = PolyCodeParams(M=10**6, p=101, n=20, k=2)


def _store_run():
    """A small store and a stream whose infected reports each raise alerts."""
    rng = random.Random(5)
    points = [rng.randrange(PARAMS.M) for _ in range(6)]
    preload = [(f"u{i}", encode(x, PARAMS, rng)) for i, x in enumerate(points)]
    stream = [
        ReportMsg("u9", UNINFECTED, encode(rng.randrange(PARAMS.M), PARAMS, rng)),
        ReportMsg("u7", INFECTED, encode(points[0], PARAMS, rng)),
        ReportMsg("u8", INFECTED, encode(points[3], PARAMS, rng)),
    ]
    server = tracing.ServerState(n=PARAMS.n, tau=PARAMS.tau)
    for user, e in preload:
        server.handle(ReportMsg(user, UNINFECTED, e))
    transport = tracing.InProcessTransport(server)
    processed = [(msg, transport.send_report(msg)) for msg in stream]
    return preload, processed, server


def test_store_gate_accepts_the_true_result():
    preload, processed, server = _store_run()
    assert [len(a) for _, a in processed] == [0, 1, 1]
    assert gate.check_store(preload, processed, server, PARAMS.tau) == []


def test_store_gate_rejects_a_dropped_alert():
    preload, processed, server = _store_run()
    msg, alerts = processed[1]
    processed[1] = (msg, alerts[1:])
    errors = gate.check_store(preload, processed, server, PARAMS.tau)
    assert any("dropped 1" in e for e in errors)


def test_store_gate_rejects_an_extra_alert():
    preload, processed, server = _store_run()
    msg, alerts = processed[2]
    user, e = preload[1]
    processed[2] = (msg, alerts + [AlertMsg(user_id=user, encoding=e)])
    errors = gate.check_store(preload, processed, server, PARAMS.tau)
    assert any("extra 1" in e for e in errors)


def _simulation():
    infections = [("u0", 19)]
    result = tracing.run_simulation(
        agents=40,
        grid=GridSpec(rows=6, cols=6, epochs=20),
        params=PolyCodeParams(M=inflate_range_bound(), p=503, n=20, k=2),
        seed=3,
        infections=infections,
        inflate_world=True,
    )
    assert result.contacts, "the scenario must have contacts"
    return result, infections


def test_simulation_gate_accepts_the_true_result():
    result, infections = _simulation()
    assert gate.check_simulation(result, infections) == []


def test_simulation_gate_rejects_a_dropped_alert():
    result, infections = _simulation()
    user = next(u for u, msgs in result.alerts.items() if msgs)
    result.alerts[user] = []
    result.recovered = [r for r in result.recovered if r[0] != user]
    assert gate.check_simulation(result, infections)


def test_simulation_gate_rejects_an_extra_alert():
    result, infections = _simulation()
    outsider = next(u for u in result.trajectories if u not in result.contacts and u != "u0")
    t = 0
    cell = result.trajectories[outsider][t]
    encoding = (0,) * 20
    result.alerts[outsider].append(AlertMsg(user_id=outsider, encoding=encoding))
    result.recovered.append((outsider, t, cell, encoding))
    assert gate.check_simulation(result, infections)
