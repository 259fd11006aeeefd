"""The traced benchmark run wraps package functions by name; a rename must
fail here rather than in the traced run."""

import random
import sys
from pathlib import Path

from tracecloak import encoder, matcher, tracing

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "protobench"))

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
