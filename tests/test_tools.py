"""The repository's tools: the line counter of tools/src_lines.py."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# line kinds: 1-2 module docstring, 9 class docstring, 12-15 a function
# docstring with a blank line inside, 7 and 17 comment-only, 4, 8, 11 and 16
# code (4 and 16 holding "#"), 3, 5, 6 and 10 blank
MODULE = '''"""A module docstring
on two lines."""

import os  # a code line with a comment


# a comment-only line
class Thing:
    """A class docstring."""

    def method(self):
        """A function docstring

        with a blank line inside.
        """
        return "#" + os.sep  # also code
        # an indented comment-only line
'''


def _src_lines():
    spec = importlib.util.spec_from_file_location("src_lines", TOOLS / "src_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_counts_each_kind(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE)
    counts = _src_lines().count(path)
    assert counts == {"code": 4, "docstring": 7, "comment": 2, "blank": 4, "all": 17}


def test_src_lines_totals_a_directory(tmp_path, capsys):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(MODULE)
    (tmp_path / "notes.txt").write_text("# not Python\n")
    assert _src_lines().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "all", "code", "docstring", "comment", "blank"]
    assert [line.split()[0] for line in lines[1:]] == [str(tmp_path / "a.py"), str(tmp_path / "b.py"), "total"]
    assert lines[-1].split()[1:] == ["34", "8", "14", "4", "8"]
