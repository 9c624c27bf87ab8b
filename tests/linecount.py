"""Count code, docstring and comment lines per file of ``src/``.

Run ``python tests/linecount.py [PATH ...]`` (default: the package under
``src/``).  It prints one row per file and a total.  The three kinds
never overlap, and blank lines count as none of them:

* a code line holds a token outside any docstring (a string or bracket
  that spans several lines makes each of them a code line);
* a docstring line is a non-blank line of a module, class or function
  docstring that holds no code token;
* a comment line holds a comment and nothing else.

A docstring is the string literal that opens a module, class or
function body, as ``ast.get_docstring`` reads it.  The file name has
no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "takegrant"

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def count_lines(source: str) -> tuple[int, int, int]:
    """(code, docstring, comment) line counts of one Python source text."""
    docstrings = set()  # (row, col) where each docstring token starts
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                docstrings.add((body[0].lineno, body[0].col_offset))
    code: set[int] = set()
    doc: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            comment.update(rows)
        elif tok.type == tokenize.STRING and tok.start in docstrings:
            doc.update(rows)
        elif tok.type not in _LAYOUT:
            code.update(rows)
    blank = {row for row, line in enumerate(source.splitlines(), 1) if not line.strip()}
    return len(code), len(doc - code - blank), len(comment - code - doc)


def main(paths: list[str]) -> None:
    files = [Path(p) for p in paths] or sorted(SRC.glob("*.py"))
    totals = [0, 0, 0]
    print(f"{'file':<24}{'code':>7}{'doc':>7}{'comment':>9}")
    for path in files:
        counts = count_lines(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<24}{counts[0]:>7}{counts[1]:>7}{counts[2]:>9}")
    print(f"{'total':<24}{totals[0]:>7}{totals[1]:>7}{totals[2]:>9}")


if __name__ == "__main__":
    main(sys.argv[1:])
