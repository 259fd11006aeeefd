import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY = ROOT / "tools" / "memory.py"


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(MEMORY), *args], capture_output=True, text=True, env=env
    )


def test_memory_tool_prints_its_four_readings():
    """A tiny shape, so that the smoke test takes about a second."""
    result = _run(
        "--clients", "3", "--records", "4", "--entries", "30",
        "--agents", "12", "--rows", "4", "--epochs", "5", "--seed", "2",
    )  # fmt: skip
    assert result.returncode == 0, result.stderr
    pattern = r"(client record|index entry|trail epoch|sim peak) +(\d+\.\d) (B|MB) +\(.+\)"
    readings = [re.fullmatch(pattern, line) for line in result.stdout.splitlines()]
    assert all(readings), result.stdout
    assert [m[1] for m in readings] == ["client record", "index entry", "trail epoch", "sim peak"]
    assert all(float(m[2]) > 0 for m in readings)


def test_memory_tool_refuses_a_count_below_one():
    result = _run("--agents", "0")
    assert result.returncode == 2
    assert "at least 1" in result.stderr
