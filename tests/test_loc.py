"""tools/loc.py on small modules written here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

# 9 code lines: the import, the def, the two lines of the multi-line
# string, the string statement that is not a docstring, the return, the
# class line and the two lines of its bracketed value
SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line

import os  # a trailing comment


def f(x):
    """Function docstring."""
    text = """first
second"""
    "not a docstring: it does not open the body"
    return x + len(text)


class C:
    """Class docstring
    on two lines."""

    value = (1 +
             2)
'''


@pytest.fixture(scope="module")
def loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks(loc):
    assert loc.code_lines(SAMPLE) == 9
    assert loc.docstring_lines(SAMPLE) == {1, 2, 10, 18, 19}
    assert loc.code_lines("") == 0
    assert loc.code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_main_prints_a_count_per_file_and_a_total(loc, tmp_path, capsys):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "b.py").write_text(SAMPLE)
    (pkg / "a.py").write_text("x = 1\n\n\ny = [\n    2,\n]\n")
    (pkg / "notes.txt").write_text("not python\n")
    single = tmp_path / "one.py"
    single.write_text("print(1)\n")
    assert loc.main([str(pkg), str(single)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"4 {pkg / 'a.py'}", f"9 {pkg / 'b.py'}", f"1 {single}", "14 total"]


def test_main_without_a_path_prints_its_usage(loc, capsys):
    assert loc.main([]) == 2
    assert capsys.readouterr().err == "usage: loc.py PATH...\n"
