import subprocess
import sys
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"

SNIPPET = '''"""Module docstring,
two lines."""

import math  # a comment after code counts

# a comment line does not


class Box:
    """Class docstring."""

    size = 3

    def area(self):
        """Function docstring,

        three lines."""
        text = """a multi-line string
        that is not a docstring"""
        return math.prod(
            (self.size, len(text))
        )
'''


def test_loc_counts_code_lines_only(tmp_path):
    """Blank lines, comment lines and docstrings are left out; each line of
    a statement or of a string that is not a docstring is counted."""
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    out = subprocess.run(
        [sys.executable, str(LOC), str(path)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    # import, class, size, def, the string's 2 lines, the return's 3 lines
    assert out == [f"     9  {path}", "     9  total"]
