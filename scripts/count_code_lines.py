"""Count the code lines of Python sources: no docstrings, comments or blanks.

A line counts when it holds at least one token of code.  Comments and
blank lines hold none; a docstring (the first statement of a module,
class or function, when it is a string literal) is dropped whole, found
with :mod:`ast`, and every other line is read with :mod:`tokenize`.

Usage::

    python scripts/count_code_lines.py [PATH ...]   # default: src

Prints the total, or one ``count path`` line per argument and the total
when given more than one path.  A directory is searched for ``*.py``
files recursively.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterator, List, Set

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_file(path: Path) -> int:
    """Code lines of one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    code: Set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                    if line not in docstrings)
    return len(code)


def _sources(path: Path) -> Iterator[Path]:
    if path.is_dir():
        yield from sorted(path.rglob("*.py"))
    else:
        yield path


def count(path: Path) -> int:
    """Code lines of a file, or of every ``*.py`` file under a directory."""
    return sum(count_file(source) for source in _sources(path))


def main(argv: List[str]) -> int:
    paths = [Path(arg) for arg in argv] or [Path("src")]
    counts = [count(path) for path in paths]
    if len(paths) > 1:
        for path, n in zip(paths, counts):
            print(f"{n} {path}")
    print(sum(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
