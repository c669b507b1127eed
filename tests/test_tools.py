"""Tests for the scripts under ``tools/``."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# 6 code lines: the import, both lines of X's string, the class, the def and
# the return; the docstrings, comments and blank lines do not count
_TOY = '''"""A module docstring,
over two lines."""

import os  # a comment after code

# a comment on its own line
X = """a string that is code,
over two lines"""


class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        return 1
'''


def test_loc_counts_code_lines_per_module_and_in_total(tmp_path):
    (tmp_path / "toy.py").write_text(_TOY)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, str(TOOLS / "loc.py"), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["0", "empty.py"], ["6", "toy.py"], ["6", "total"]]
