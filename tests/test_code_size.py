"""The lab's code stays within its line budget.  A code line holds a token
other than a comment and lies outside every module, class and function
docstring, so prose neither costs nor earns lines."""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "celab"
# Code lines of src/celab/*.py when the budget was set: code added later is
# paid for by deleting as much.
BUDGET = 1198

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    docstrings = []  # ((line, column) of the first character, of the one after the last)
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


_SNIPPET = '''"""A module docstring,
over two lines."""

# a comment
import os  # a trailing comment


def join(a,
         b):
    """A function docstring."""
    text = """a string,
    not a docstring"""
    return os.path.join(
        a,
        b,
    )


class Empty:
    """A class docstring."""
'''


def test_code_lines_are_counted():
    # import; the def over two lines; the string over two; the call over
    # four; the class line.
    assert _code_lines(_SNIPPET) == 10


def test_code_within_budget():
    counts = {path.name: _code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(SRC.glob("*.py"))}
    assert sum(counts.values()) <= BUDGET, counts
