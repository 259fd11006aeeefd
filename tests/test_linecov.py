import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINECOV = ROOT / "tools" / "linecov.py"
sys.path.insert(0, str(LINECOV.parent))

import linecov  # noqa: E402
NUMTHEORY = ROOT / "src" / "tracecloak" / "numtheory.py"

ONE_TEST = '''from tracecloak.numtheory import primes


def test_primes():
    assert primes(3) == [2, 3, 5]
'''


def _line_of(text: str) -> int:
    (number,) = [i for i, line in enumerate(NUMTHEORY.read_text().splitlines(), 1) if text in line]
    return number


def test_linecov_lists_the_statements_a_run_missed(tmp_path):
    """One test that calls `primes`: its refusal of a negative count is
    listed, its loop is not, and a module never imported is not run at all.
    Loading the hypothesis plugin would take most of the run."""
    (tmp_path / "test_one.py").write_text(ONE_TEST)
    result = subprocess.run(
        [sys.executable, str(LINECOV), "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest", "test_one.py"],
        capture_output=True, text=True, cwd=tmp_path,
    )  # fmt: skip
    assert result.returncode == 0, result.stdout + result.stderr
    out = result.stdout.splitlines()
    refusal = _line_of('raise ValueError("count must be non-negative")')
    assert f'src/tracecloak/numtheory.py:{refusal}  raise ValueError("count must be non-negative")' in out
    assert not any(line.startswith(f"src/tracecloak/numtheory.py:{_line_of('out.append(n)')} ") for line in out)
    counts = {}
    for line in out:
        if m := re.fullmatch(r" +(\d+) of +(\d+) statements not run  (\S+)", line):
            counts[m[3]] = (int(m[1]), int(m[2]))
    missed, total = counts["src/tracecloak/numtheory.py"]
    assert 0 < missed < total
    missed, total = counts["src/tracecloak/tracing.py"]
    assert missed == total > 0
    assert out[-1].endswith("statements not run  total")
    assert counts["total"][0] == sum(m for name, (m, _) in counts.items() if name != "total")


DECLARATIONS = """counter = 0


def bump():
    global counter
    counter += 1

    def inner():
        nonlocal step
        step = 2

    step = 1
    inner()
    return step
"""


def test_declarations_are_not_statements():
    """`global` and `nonlocal` compile to no line a tracer sees, so a run
    that executes every line of `bump` would still list them."""
    found = linecov.statements(DECLARATIONS)
    lines = DECLARATIONS.splitlines()
    assert [lines[i - 1].strip() for i in (5, 9)] == ["global counter", "nonlocal step"]
    assert sorted(found) == [1, 6, 10, 12, 13, 14]  # neither 5 nor 9
