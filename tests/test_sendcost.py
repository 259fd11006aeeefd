import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SENDCOST = ROOT / "tools" / "sendcost.py"
CLIENT_LAYERS = (
    "walk.sim",
    "inflate",
    "inflate_points.epoch",
    "limb_split.epoch",
    "sorted_code",
    "sorted_codes.epoch",
    "corrupt",
    "corrupt_rows.epoch",
    "client.record",
    "client_tick",
)
KINDS = ("resend", "reencode", "fresh")
LAYERS = ("format_message", "parse_message", "handle.uninfected", "handle.infected", "add", "send_report")


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(SENDCOST), *args], capture_output=True, text=True, env=env
    )


def test_sendcost_prints_each_shape_and_layer():
    """A tiny store at each shape, so that the smoke test takes under 2 s.
    The tool checks no output, as tier-1 proves what it times.  A re-send
    finds at least its own entry, and so does a re-encoding, within tau of
    the stored encoding of its point."""
    result = _run("--entries", "40", "--sends", "10", "--rounds", "2")
    assert result.returncode == 0, result.stderr
    pattern = r"(sim|row1|row3) +(client|D=40) +([a-z_.]+) +(\d+\.\d\d) us(?: +(\d+\.\d\d) candidates)?"
    lines = [re.fullmatch(pattern, line) for line in result.stdout.splitlines()]
    assert all(lines), result.stdout
    server = [f"query.{kind}" for kind in KINDS] + list(LAYERS)
    assert [(m[1], m[2], m[3]) for m in lines] == [
        ("sim", "client", layer) for layer in CLIENT_LAYERS
    ] + [(shape, "D=40", layer) for shape in ("sim", "row1", "row3") for layer in server]
    assert all(float(m[4]) > 0 for m in lines)
    assert all((m[5] is not None) == m[3].startswith("query.") for m in lines)
    assert all(float(m[5]) >= 1 for m in lines if m[3] in ("query.resend", "query.reencode"))


def test_sendcost_refuses_a_count_below_one():
    for args in (("--sends", "0"), ("--entries", "0"), ("--rounds", "0")):
        result = _run(*args)
        assert result.returncode == 2
        assert "at least 1" in result.stderr
