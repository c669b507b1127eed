"""Tests for the scripts under ``tools/``."""

import hashlib
import importlib.util
import json
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


def _ledger():
    """``tools/ledger.py`` as a module."""
    spec = importlib.util.spec_from_file_location("ledger", TOOLS / "ledger.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _toy_tree(root, text):
    """A source tree whose ``chaos01.cli`` writes ``text`` to the file its
    first argument names."""
    package = root / "src" / "chaos01"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        f"import pathlib, sys\npathlib.Path(sys.argv[1]).write_text({text!r})\nprint('ok')\n")
    return root


def test_ledger_finds_two_copies_of_a_tree_the_same(tmp_path, monkeypatch):
    ledger = _ledger()
    monkeypatch.setattr(ledger, "CASES", {"toy": [
        ["cli", "out.txt"],
        ["py", "import chaos01; print(chaos01.__file__)"],  # printed as <tree>/...
    ]})
    out = tmp_path / "ledger.json"
    trees = [str(_toy_tree(tmp_path / name, "x\n")) for name in ("base", "head")]
    assert ledger.main([*trees, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["summary"] == {"steps": 2, "files_written": 1, "differ": 0}
    assert [entry["same"] for entry in doc["steps"]] == [True, True]
    # a tree that writes other bytes differs at that step only
    trees[1] = str(_toy_tree(tmp_path / "other", "y\n"))
    assert ledger.main([*trees, "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["summary"]["differ"] == 1
    assert [entry["same"] for entry in doc["steps"]] == [False, True]


def _kv_line(config, k_c, degenerate, k_m, label):
    """One line of the "kvalues" step's output."""
    digest = hashlib.sha256(repr((k_c, degenerate, k_m, label)).encode()).hexdigest()
    return json.dumps({"config": config, "sha256": digest, "k_c": [k.hex() for k in k_c],
                       "degenerate": degenerate, "k_m": k_m.hex(), "label": label})


def test_ledger_reports_the_largest_k_value_changes():
    changes = _ledger()._kvalue_changes
    same = _kv_line([800, "henon", 1], [0.5, 0.25], [False, False], 0.375, "aperiodic")
    old = _kv_line([800, "henon", 2], [0.5, 0.25, 0.0], [False, False, True], 0.375, "aperiodic")
    new = _kv_line([800, "henon", 2], [0.75, 0.0, 0.125], [False, True, False], 0.25, "regular")
    base, head = f"{same}\n{old}\n".encode(), f"{same}\n{new}\n".encode()
    assert changes(base, head) == [{
        "config": [800, "henon", 2], "max_dk_c": 0.25, "dk_m": 0.125,
        "label": ["aperiodic", "regular"], "degenerate_changed": [1, 2]}]
    assert changes(base, base) == []
    # other configurations, or another count of them, cannot be compared
    other = _kv_line([800, "henon", 3], [0.5, 0.25], [False, False], 0.375, "aperiodic")
    assert changes(base, f"{same}\n{other}\n".encode()) is None
    assert changes(base, f"{same}\n".encode()) is None
