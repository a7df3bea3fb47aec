"""Tests for tests/code_lines.py, the per-module count of code lines."""

from __future__ import annotations

import code_lines

# Hand count: lines 6 and 8-13 hold code (7 lines).  The module docstring
# (1-2), the blank lines (3, 5), the comment-only line (4) and the function
# docstring (7) do not; the string statement on line 12 is not a docstring.
SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line

def f(x):
    """A function docstring."""
    total = max(
        x,
        1,
    )
    "a string statement that is not a docstring"
    return total  # a trailing comment
'''


def test_code_lines_counts_by_hand_and_main_totals_its_rows(capsys):
    assert code_lines.code_lines(SOURCE) == 7

    assert code_lines.main([]) == 0
    header, *modules, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "lines", "code"]
    assert modules and all(row.split()[0].endswith(".py") for row in modules)
    sums = [sum(int(row.split()[column]) for row in modules) for column in (1, 2)]
    assert total.split() == ["total", *map(str, sums)]
