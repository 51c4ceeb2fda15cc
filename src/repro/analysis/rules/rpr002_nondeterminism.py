"""RPR002 — no nondeterminism primitives in the numeric core.

Scoped to ``core/``, ``perf/`` and ``distance/``: the packages whose
outputs must be bit-identical across cache hits and misses,
serial/parallel and repeated seeded runs.  Two classes of violation:

* **Wall-clock / entropy reads** (``time.time``, ``os.urandom``,
  ``uuid.uuid4``, ``datetime.now`` ...) — any such value that reaches a
  result or a branch makes the run irreproducible.  Duration clocks
  (``time.perf_counter``/``monotonic``) are flagged too, with a
  softer rationale: durations never feed result values, but every
  timing read in the numeric core must flow through the single
  sanctioned seam :func:`repro.obs.clock.monotonic_s` so the
  observability layer owns the clock.  Code outside the scoped
  directories may use the duration clocks directly.
* **Unordered-set iteration** — ``for x in {...}`` / iterating
  ``set(...)`` directly.  Set order depends on element hashes, which
  for strings vary per process (``PYTHONHASHSEED``); a result built in
  that order differs between runs.  Wrap the set in ``sorted(...)`` to
  pin the order.
"""

from __future__ import annotations

import ast
from typing import Iterator, Union

from ..contracts import (DETERMINISM_SCOPED_DIRS, DURATION_CLOCK_CALLS,
                         WALL_CLOCK_CALLS)
from ..engine import FileContext, Finding
from .base import Rule, collect_imports, dotted_name

__all__ = ["NondeterminismRule"]

_SET_CTORS = ("set", "frozenset")


def _is_set_expr(node: ast.AST) -> bool:
    """Does ``node`` evaluate to a (frozen)set with unspecified order?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _SET_CTORS
    return False


class NondeterminismRule(Rule):
    rule_id = "RPR002"
    severity = "error"
    summary = "no wall-clock or hash-order primitives in core/perf/distance"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_dirs(*DETERMINISM_SCOPED_DIRS):
            return
        imports = collect_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, imports)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    yield from self._check_iteration(ctx, comp.iter)

    def _check_call(self, ctx: FileContext, node: ast.Call,
                    imports: dict) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        head, _, rest = dotted.partition(".")
        if head not in imports:
            return
        base = imports[head]
        qname = f"{base}.{rest}" if rest else base
        if qname in WALL_CLOCK_CALLS or qname.startswith("secrets."):
            yield self.finding(
                ctx, node,
                f"nondeterminism primitive {qname} in a bit-identity "
                "scoped module",
                hint="results may only depend on inputs and the seeded "
                     "Generator; use repro.obs.clock.monotonic_s for "
                     "durations",
            )
        elif qname in DURATION_CLOCK_CALLS:
            yield self.finding(
                ctx, node,
                f"raw duration clock {qname} in a bit-identity scoped "
                "module",
                hint="route timing reads through the sanctioned seam "
                     "repro.obs.clock.monotonic_s so the observability "
                     "layer owns the clock",
            )

    def _check_iteration(self, ctx: FileContext,
                         iter_node: ast.expr) -> Iterator[Finding]:
        if _is_set_expr(iter_node):
            yield self.finding(
                ctx, iter_node,
                "iteration over an unordered set feeds hash-order into "
                "the result",
                hint="wrap the set in sorted(...) to pin a deterministic "
                     "order",
            )
