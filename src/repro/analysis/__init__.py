"""Static analysis: machine-checked determinism & contract lint.

The reproduction's headline guarantees — seeded runs are bit-identical
across cache hits and misses and serial/parallel execution — rest on invariants
spread over ~10 modules that tests can only spot-check.  This package
turns them into lint rules enforced on every commit:

========  =============================================================
RPR001    no global-state RNG; all randomness threads a seeded
          ``numpy.random.Generator``
RPR002    no wall-clock/entropy primitives or unordered-set iteration
          inside ``core/``, ``perf/``, ``distance/``
RPR003    every ``IterativeCache`` key covers all quantities that
          determine the cached value (checked against
          :mod:`repro.analysis.contracts`)
RPR004    public API surface has complete type annotations and raises
          only :mod:`repro.exceptions` types
RPR005    ``multiprocessing`` targets are module-level functions taking
          only declared-shareable argument types
RPR006    no float64 re-coercions of arrays inside ``core/``, ``perf/``,
          ``distance/`` — the working dtype chosen at the API boundary
          is preserved (seams: :mod:`repro.dtypes`)
RPR007    values cached by ``IterativeCache`` come only from
          (transitively) pure producers: no argument mutation, no
          mutable module-global reads outside the declared allowlist
          (interprocedural: :mod:`repro.analysis.dataflow`)
RPR008    ``SharedMatrix``-published buffers are write-protected at
          publish time and never mutated afterwards, through any call
          chain
RPR009    suppression hygiene — ``# repr: noqa`` directives that no
          longer suppress anything are themselves findings
========  =============================================================

Entry points: ``proclus lint`` (CLI), ``python -m repro.analysis``, or
:func:`lint_paths` programmatically.  Suppress a finding with
``# repr: noqa RPRxxx`` on the offending line (see
``docs/static_analysis.md``).
"""

from .contracts import CACHE_KEY_CONTRACTS, SHAREABLE_TYPE_NAMES
from .engine import (
    Finding,
    LintReport,
    format_json,
    format_text,
    lint_file,
    lint_paths,
    lint_source,
)
from .rules import ALL_RULES, get_rules, rule_ids

__all__ = [
    "Finding",
    "LintReport",
    "lint_paths",
    "lint_file",
    "lint_source",
    "format_text",
    "format_json",
    "ALL_RULES",
    "get_rules",
    "rule_ids",
    "CACHE_KEY_CONTRACTS",
    "SHAREABLE_TYPE_NAMES",
]
