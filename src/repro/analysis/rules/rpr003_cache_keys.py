"""RPR003 — cache-key completeness.

:class:`repro.perf.cache.IterativeCache` only serves what a miss would
recompute if every store key covers *all* quantities that determine
the cached value: a key that omits, say, the metric returns a Euclidean
column to a Manhattan caller.  The determining quantities are declared
per method in :data:`repro.analysis.contracts.CACHE_KEY_CONTRACTS`;
this rule verifies the implementation against that table:

* within each contracted method, the union of identifiers flowing into
  the ``get``/``put`` key expressions of the contracted store (local
  assignments resolved transitively) must include every declared name;
* a contracted store accessed from a method *not* in the table is
  flagged — a new cached product must declare its contract first;
* a contracted method that never touches its store is flagged, so the
  table cannot silently rot.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from ..contracts import CACHE_KEY_CONTRACTS
from ..engine import FileContext, Finding
from .base import Rule, names_in

__all__ = ["CacheKeyRule"]


def _local_bindings(func: ast.FunctionDef) -> Dict[str, Set[str]]:
    """Map each locally bound name to the names its value derives from."""
    out: Dict[str, Set[str]] = {}

    def bind(target: ast.expr, source_names: Set[str]) -> None:
        for node in ast.walk(target):
            if isinstance(node, ast.Name):
                out.setdefault(node.id, set()).update(source_names)

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                bind(target, names_in(node.value))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            bind(node.target, names_in(node.value))
        elif isinstance(node, ast.AugAssign):
            bind(node.target, names_in(node.value))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bind(node.target, names_in(node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for comp in node.generators:
                bind(comp.target, names_in(comp.iter))
    return out


def _expand(names: Set[str], bindings: Dict[str, Set[str]]) -> Set[str]:
    """Transitive closure of ``names`` through local assignments."""
    seen: Set[str] = set()
    frontier = list(names)
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        frontier.extend(bindings.get(name, ()))
    return seen


def _store_accesses(func: ast.FunctionDef, store: str) -> List[ast.Call]:
    """Calls of the form ``self.<store>.get(...)`` / ``.put(...)``."""
    calls = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("get", "put")):
            continue
        owner = node.func.value
        if (isinstance(owner, ast.Attribute) and owner.attr == store
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"):
            calls.append(node)
    return calls


class CacheKeyRule(Rule):
    rule_id = "RPR003"
    severity = "error"
    summary = "cache keys must cover every determining quantity"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and node.name in CACHE_KEY_CONTRACTS:
                yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        contracts = CACHE_KEY_CONTRACTS[cls.name]
        contracted_stores = {c.store for c in contracts.values()}
        methods = {
            n.name: n for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        for name, contract in contracts.items():
            method = methods.get(name)
            if method is None:
                yield self.finding(
                    ctx, cls,
                    f"{cls.name}.{name} is declared in the cache-key "
                    "contract table but does not exist",
                    hint="update repro/analysis/contracts.py alongside "
                         "the cache API",
                )
                continue
            accesses = _store_accesses(method, contract.store)
            if not accesses:
                yield self.finding(
                    ctx, method,
                    f"{cls.name}.{name} never accesses its contracted "
                    f"store self.{contract.store}",
                    hint="update repro/analysis/contracts.py alongside "
                         "the cache API",
                )
                continue
            bindings = _local_bindings(method)
            key_names: Set[str] = set()
            for call in accesses:
                if call.args:
                    key_names |= names_in(call.args[0])
            key_names = _expand(key_names, bindings)
            missing = [k for k in contract.key_names if k not in key_names]
            if missing:
                yield self.finding(
                    ctx, method,
                    f"{cls.name}.{name} keys self.{contract.store} "
                    f"without determining quantit"
                    f"{'y' if len(missing) == 1 else 'ies'} "
                    f"{', '.join(missing)}",
                    hint="an under-keyed cache serves stale values when "
                         "the omitted quantity changes; add it to the key",
                )

        # stores used outside any contracted method: undeclared product
        for name, method in methods.items():
            if name in contracts:
                continue
            for store in sorted(contracted_stores):
                for call in _store_accesses(method, store):
                    yield self.finding(
                        ctx, call,
                        f"{cls.name}.{name} accesses cache store "
                        f"self.{store} but declares no key contract",
                        hint="declare the method and its determining "
                             "quantities in repro/analysis/contracts.py",
                    )
