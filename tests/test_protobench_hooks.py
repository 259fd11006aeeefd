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


def test_provenance_records_the_kernels_backend():
    args = Namespace(workload="sim", seed=1, seconds=10, trace=0)
    assert run.provenance(args)["kernels_backend"] == "pure"
