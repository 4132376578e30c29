"""`tools/loc.py` counts lines and code lines on a small fixture."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# 19 lines.  Code lines: import, def, the two lines of `y = (x + 1)`,
# return, class and the two lines of the string assigned to `s`, which is
# not a docstring.  Blank lines, comments and docstrings are left out.
_FIXTURE = '''"""A module docstring
over two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """One-line docstring."""
    y = (x +
         1)
    return y


class C:
    """Class docstring."""

    s = """not a
    docstring"""
'''


def test_count_leaves_out_blanks_comments_and_docstrings():
    assert loc.count(_FIXTURE) == (19, 8)


def test_count_tree_sums_every_python_file_below_the_root(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(_FIXTURE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not counted\n")
    assert loc.count_tree(tmp_path) == (22, 9)


def test_main_prints_one_line(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_FIXTURE)
    loc.main([str(tmp_path)])
    assert capsys.readouterr().out == f"{tmp_path}: 19 lines, 8 code lines\n"
