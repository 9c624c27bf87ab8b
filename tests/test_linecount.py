"""The line counter behind the code-line figures in ``CHANGES.md``."""

from __future__ import annotations

from linecount import count_lines

SOURCE = '''"""Module docstring,

over three lines."""

# A comment line.
import os  # a code line, whatever it ends with


def f(x):
    """One docstring line."""
    text = """a string that is no docstring
    spans two code lines"""
    return (x,
            text)


class C:
    """Class docstring."""; y = 1
'''


def test_counts_code_docstring_and_comment_lines():
    # Code: import, def, text (2), return (2), class, the docstring line
    # that also assigns y.  Docstrings: 2 module lines (the blank one
    # counts as none) and the function's.  Comments: the lone one.
    assert count_lines(SOURCE) == (8, 3, 1)
