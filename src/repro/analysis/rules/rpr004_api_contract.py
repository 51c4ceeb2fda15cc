"""RPR004 — public API surface: complete annotations, typed errors.

Applies to the package root ``__init__.py``, ``cli.py``, ``rng.py``,
and every module under ``core/``, ``serve/``, ``data/`` and
``extensions/``.  Two guarantees:

* **Complete type annotations** on public functions and public methods
  of public classes — the contract the ``mypy --strict`` gate then
  verifies for internal consistency.  (The linter check means a missing
  annotation fails fast with a focused message even where mypy is not
  installed.)
* **Typed errors only**: a ``raise`` of a bare builtin exception
  (``ValueError``, ``RuntimeError``, ...) escapes the documented
  ``repro.exceptions`` hierarchy, so callers following the documented
  ``except ReproError`` pattern crash instead of handling the failure.
  ``NotImplementedError`` (abstract methods) and bare re-``raise`` are
  allowed.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from ..engine import FileContext, Finding
from .base import Rule, dotted_name

__all__ = ["ApiContractRule"]

FuncNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Builtins whose direct ``raise`` leaks an untyped error to callers.
_BUILTIN_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError",
    "RuntimeError", "KeyError", "IndexError", "LookupError",
    "ArithmeticError", "ZeroDivisionError", "OverflowError",
    "FloatingPointError", "AttributeError", "OSError", "IOError",
    "FileNotFoundError", "PermissionError", "StopIteration",
    "MemoryError", "RecursionError", "SystemError", "UnicodeError",
    "AssertionError", "EOFError", "BufferError",
})


def _in_scope(ctx: FileContext) -> bool:
    if (ctx.in_dirs("core", "serve", "data", "extensions")
            or ctx.basename in ("cli.py", "rng.py")):
        return True
    # the package root __init__ (repro/__init__.py), not every package's
    return (ctx.basename == "__init__.py"
            and bool(ctx.dir_parts) and ctx.dir_parts[-1] == "repro")


class ApiContractRule(Rule):
    rule_id = "RPR004"
    severity = "error"
    summary = "public API: complete annotations, repro.exceptions only"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _in_scope(ctx):
            return
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield from self._check_function(ctx, node, qual=node.name)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if (isinstance(member, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                            and not member.name.startswith("_")):
                        yield from self._check_function(
                            ctx, member, qual=f"{node.name}.{member.name}",
                            is_method=True,
                        )

    # ------------------------------------------------------------------
    def _check_function(self, ctx: FileContext, func: FuncNode, *,
                        qual: str, is_method: bool = False) -> Iterator[Finding]:
        yield from self._check_annotations(ctx, func, qual, is_method)
        yield from self._check_raises(ctx, func, qual)

    def _check_annotations(self, ctx: FileContext, func: FuncNode,
                           qual: str, is_method: bool) -> Iterator[Finding]:
        a = func.args
        positional = list(a.posonlyargs) + list(a.args)
        if is_method and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        missing = [
            arg.arg for arg in positional + list(a.kwonlyargs)
            if arg.annotation is None
        ]
        for extra in (a.vararg, a.kwarg):
            if extra is not None and extra.annotation is None:
                missing.append(f"*{extra.arg}")
        if missing:
            yield self.finding(
                ctx, func,
                f"public function {qual} has unannotated parameter(s): "
                f"{', '.join(missing)}",
                hint="the strict-typing gate needs complete signatures",
            )
        if func.returns is None:
            yield self.finding(
                ctx, func,
                f"public function {qual} has no return annotation",
                hint="annotate the return type (use -> None for "
                     "procedures)",
            )

    def _check_raises(self, ctx: FileContext, func: FuncNode,
                      qual: str) -> Iterator[Finding]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted_name(exc)
            if name in _BUILTIN_EXCEPTIONS:
                yield self.finding(
                    ctx, node,
                    f"{qual} raises builtin {name} instead of a "
                    "repro.exceptions type",
                    hint="raise ParameterError/DataError/... so "
                         "`except ReproError` keeps its contract",
                )
