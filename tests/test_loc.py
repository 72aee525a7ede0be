import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "loc.py")
SPEC = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(loc)

# lines 1-2 a module docstring, 3 and 6 blank, 5 comment-only, 8 a function
# docstring; code on 4, 7, 9-10 (one statement over two lines) and 11-12 (a
# string that is not a docstring)
SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code
# a comment-only line

def f(x):
    """A function docstring."""
    return (x +
            1)
TEXT = """a string
that is code"""
'''


def test_count_splits_total_and_code_lines():
    assert loc.count(SOURCE) == (12, 6)


def test_total_row_is_the_sum_of_the_module_rows(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert loc.main(["loc.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "total", "code"]
    counts = {name: tuple(int(v.replace(",", "")) for v in rest) for name, *rest in rows[1:]}
    assert counts == {"a.py": (12, 6), "b.py": (3, 1), "src/fracspec": (15, 7)}


@pytest.mark.parametrize("source, want", [("", (0, 0)), ('"""Only a docstring."""\n', (1, 0)),
                                          ("class C:\n    'doc'\n    x = 1\n", (3, 2))])
def test_count_of_small_modules(source, want):
    assert loc.count(source) == want
