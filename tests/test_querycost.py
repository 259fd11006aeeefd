import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUERYCOST = ROOT / "tools" / "querycost.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(QUERYCOST), *args], capture_output=True, text=True, env=env
    )


def test_querycost_prints_each_shape_and_kind():
    """A tiny store at each shape, so that the smoke test takes under a
    second.  A re-send finds at least its own entry, and so does a
    re-encoding, within tau of the stored encoding of its point."""
    result = _run("--entries", "40", "--queries", "10", "--rounds", "2", "--check", "3")
    assert result.returncode == 0, result.stderr
    pattern = r"(sim|row1|row3) +D=40 +(resend|reencode|fresh) +(\d+\.\d\d) us +(\d+\.\d\d) candidates"
    lines = [re.fullmatch(pattern, line) for line in result.stdout.splitlines()]
    assert all(lines), result.stdout
    assert [(m[1], m[2]) for m in lines] == [
        (shape, kind) for shape in ("sim", "row1", "row3") for kind in ("resend", "reencode", "fresh")
    ]
    assert all(float(m[3]) > 0 for m in lines)
    assert all(float(m[4]) >= 1 for m in lines if m[2] != "fresh")


def test_querycost_refuses_a_count_below_one():
    for args in (("--queries", "0"), ("--entries", "0")):
        result = _run(*args)
        assert result.returncode == 2
        assert "at least 1" in result.stderr
