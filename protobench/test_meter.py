"""The meter's correction, on a fake clock.

    PYTHONPATH=src python3 -m pytest -q protobench/test_meter.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from meter import PERIOD_NS, REFERENCE_NS, Meter  # noqa: E402


class FakeHost:
    """A clock that advances only when told; the reference takes
    `REFERENCE_NS * slowdown`."""

    def __init__(self):
        self.now = 0
        self.slowdown = 1.0

    def clock(self) -> int:
        return self.now

    def reference(self) -> None:
        self.now += int(REFERENCE_NS * self.slowdown)

    def work(self, meter: Meter, ns: int) -> None:
        meter.tick()
        self.now += int(ns * self.slowdown)
        meter.sample(int(ns * self.slowdown))


def test_steady_slow_host_is_corrected():
    host = FakeHost()
    host.slowdown = 2.0
    meter = Meter(host.clock, host.reference)
    meter.start()
    for _ in range(100):
        host.work(meter, 1_000_000)
    meter.stop()
    assert meter.raw_ns == 200_000_000
    assert meter.scaled_ns == 100_000_000
    assert meter.scaled_samples() == [1_000_000.0] * 100
    assert meter.slowdown == 2.0


def test_speed_change_is_corrected_per_segment():
    host = FakeHost()
    meter = Meter(host.clock, host.reference)
    meter.start()
    for i in range(400):
        # the host halves its speed for a stretch well over the window
        host.slowdown = 2.0 if 100 <= i < 300 else 1.0
        host.work(meter, 1_000_000)
    meter.stop()
    samples = meter.scaled_samples()
    assert len(samples) == 400
    # only the samples next to a change of speed are off
    off = [s for s in samples if s != 1_000_000.0]
    assert len(off) <= 4 * PERIOD_NS // 1_000_000
    assert abs(meter.scaled_ns - 400_000_000) / 400_000_000 < 0.1
