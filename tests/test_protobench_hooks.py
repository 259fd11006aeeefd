"""The benchmark calls package functions by name; a rename or removal must
fail here rather than in a benchmark run."""

import random
import sys
from argparse import Namespace
from pathlib import Path

from tracecloak import encoder, matcher, tracing

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "protobench"))

import run  # noqa: E402
import spans  # noqa: E402


def test_tracer_installs_and_restores_every_wrapper():
    originals = {
        (mod, name): getattr(mod, name)
        for mod in (encoder, tracing)
        for name in dir(mod)
        if callable(getattr(mod, name))
    }
    handle, add = tracing.ServerState.handle, matcher.MatchIndex.add
    params = encoder.PolyCodeParams(M=10**4, p=31, n=10, k=2)
    tracer = spans.Tracer()
    with tracer.installed():
        assert encoder.encode is not originals[(encoder, "encode")]
        e = encoder.encode(1234, params, random.Random(0))
    assert e == encoder.encode(1234, params, random.Random(0))
    assert tracer.calls["encoder.encode"] == 1
    assert {
        key: getattr(*key) for key in originals
    } == originals
    assert (tracing.ServerState.handle, matcher.MatchIndex.add) == (handle, add)


def test_simulation_calls_every_wrapped_layer():
    """The tracer's call counts of a small inflated simulation equal the
    run's own counts, so a simulator loop that calls a layer some other way
    than through the attribute the tracer wraps fails here."""
    grid = tracing.GridSpec(rows=4, cols=4, epochs=8)
    params = encoder.PolyCodeParams(M=encoder.inflate_range_bound(), p=503, n=20, k=2)
    tracer = spans.Tracer()
    with tracer.installed():
        result = tracing.run_simulation(
            agents=12, grid=grid, params=params, seed=26,
            infections=[("u0", 5), ("u3", 7)], inflate_world=True,
        )  # fmt: skip
    uninfected, infected = result.server.store_size, len(result.server.infected_log)
    assert uninfected == 12 * 8 and infected > 0 and result.recovered
    calls = tracer.calls
    assert calls["tracing.run_simulation"] == 1
    assert calls["tracing.client_tick"] == uninfected  # one tick a report at radius 0
    # the simulator inflates, encodes and corrupts an epoch at a time, through
    # inflate_points, the limb split and corrupt_rows, so the scalar
    # references never run
    for name in ("encoder.encode", "encoder.inflate", "numtheory.to_digits", "encoder.corrupt"):
        assert calls[name] == 0, name
    assert calls["tracing.transport.send"] == uninfected + infected
    assert calls["tracing.handle.uninfected"] == uninfected
    assert calls["tracing.handle.infected"] == infected
    assert calls["tracing.client_handle_alert"] == len(result.recovered)


def test_provenance_records_the_kernels_backend():
    args = Namespace(workload="sim", seed=1, seconds=10, trace=0)
    assert run.provenance(args)["kernels_backend"] == "pure"
