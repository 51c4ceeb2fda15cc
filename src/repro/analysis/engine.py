"""AST lint engine enforcing the library's determinism contracts.

The PROCLUS reproduction promises bit-identical results across cache
hits and misses, serial/parallel, and repeated seeded runs.  Those
guarantees rest on source-level invariants (every random draw threads a seeded
``Generator``, no wall-clock value feeds a result, every cache key
covers the quantities that determine its value) that no runtime test
can exhaustively cover — a single ``np.random.rand`` call in a rarely
taken branch silently breaks reproducibility.  This engine makes the
invariants machine-checked: it parses each file once, hands the tree to
every registered rule (:mod:`repro.analysis.rules`), and collects
structured :class:`Finding`\\ s.

Suppression mirrors flake8's ``noqa`` with a project-specific marker so
the two never collide::

    rng = np.random.default_rng()  # repr: noqa RPR001 -- sanctioned entry

``# repr: noqa`` without rule ids silences every rule on that line.
Directories named in :data:`DEFAULT_EXCLUDE_DIRS` (notably the lint
test fixtures, which contain violations *on purpose*) are skipped when
walking a directory tree; paths given explicitly are always linted.

Since the interprocedural pass (RPR007/RPR008) landed, a lint run is
whole-program: every file of the invocation is parsed first, a shared
:class:`~repro.analysis.dataflow.Project` (symbol table → call graph →
effect summaries → purity fixpoint) is built over all of them, and
project-aware rules resolve calls across module boundaries.  ``select``
now restricts what is *reported*, not what runs: RPR009 (stale
suppressions) is only sound against the raw findings of the full
registry, so selecting it runs everything underneath.
"""

from __future__ import annotations

import ast
import json
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..exceptions import ParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .rules import Rule

__all__ = [
    "Finding",
    "FileContext",
    "LintReport",
    "NoqaDirective",
    "DEFAULT_EXCLUDE_DIRS",
    "lint_paths",
    "lint_file",
    "lint_source",
    "format_text",
    "format_json",
]

#: Directory names skipped while walking a tree.  ``lint_fixtures`` holds
#: the test corpus of *intentional* violations; linting it would make the
#: repo self-check meaningless.
DEFAULT_EXCLUDE_DIRS = frozenset({
    ".git", "__pycache__", ".mypy_cache", ".pytest_cache",
    "build", "dist", ".eggs", "lint_fixtures",
})

#: Matches a suppression directive: the marker ``repr: noqa`` inside a
#: comment, optionally followed by rule ids (comma or space separated;
#: anything after ``--`` is a human note).  Spelled without the leading
#: hash here so this very comment is not parsed as a live directive.
_NOQA_RE = re.compile(
    r"#\s*repr:\s*noqa(?P<ids>[\sA-Z0-9,]*)", re.IGNORECASE
)
_RULE_ID_RE = re.compile(r"RPR\d{3}", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the schema the CLI's ``--format json`` emits)."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    def location(self) -> str:
        """``path:line:col`` for terminal output (clickable in most IDEs)."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass(frozen=True)
class NoqaDirective:
    """One parsed ``# repr: noqa [RPRxxx, ...]`` comment."""

    #: suppressed rule ids; the single member ``"*"`` suppresses all
    ids: FrozenSet[str]
    #: 1-indexed column of the comment marker
    col: int


@dataclass
class FileContext:
    """Everything a rule needs to check one parsed file."""

    path: Path
    source: str
    tree: ast.Module
    #: lowercase directory names on the file's path (``core``, ``tests``...),
    #: used by scope-restricted rules (RPR002 only guards the numeric core).
    dir_parts: Tuple[str, ...] = ()
    #: line -> parsed suppression directive on that line.
    noqa: Dict[int, NoqaDirective] = field(default_factory=dict)

    @property
    def display_path(self) -> str:
        """Path string as reported in findings."""
        return str(self.path)

    def in_dirs(self, *names: str) -> bool:
        """True when any path component matches one of ``names``."""
        return any(n in self.dir_parts for n in names)

    @property
    def basename(self) -> str:
        return self.path.name

    def suppressed(self, line: int, rule: str) -> bool:
        directive = self.noqa.get(line)
        if directive is None:
            return False
        return "*" in directive.ids or rule.upper() in directive.ids


@dataclass
class LintReport:
    """Findings plus the file census, for structured output."""

    findings: List[Finding]
    files_checked: int

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _parse_noqa(source: str) -> Dict[int, NoqaDirective]:
    """Map line numbers to parsed suppression directives.

    Tokenises so the directive is only honoured inside real comments —
    a string literal containing ``# repr: noqa`` does not suppress
    anything.  Falls back to a line scan if tokenisation fails (the AST
    parse will report the syntax problem anyway).  Columns are
    1-indexed, pointing at the comment marker, so RPR009 findings jump
    editors to the directive itself.
    """
    out: Dict[int, NoqaDirective] = {}

    def record(lineno: int, col: int, text: str) -> None:
        m = _NOQA_RE.search(text)
        if not m:
            return
        ids = frozenset(
            i.upper() for i in _RULE_ID_RE.findall(m.group("ids") or ""))
        out[lineno] = NoqaDirective(ids=ids or frozenset({"*"}), col=col)

    try:
        for tok in tokenize.generate_tokens(StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                record(tok.start[0], tok.start[1] + 1, tok.string)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "#" in line:
                idx = line.index("#")
                record(lineno, idx + 1, line[idx:])
    return out


def build_context(path: Path, source: str) -> FileContext:
    """Parse ``source`` into the context rules consume.

    Raises :class:`~repro.exceptions.ParameterError` on syntax errors —
    an unparsable file cannot be certified and must fail the gate.
    """
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise ParameterError(
            f"cannot lint {path}: invalid Python syntax "
            f"(line {exc.lineno}): {exc.msg}"
        ) from exc
    dir_parts = tuple(p.lower() for p in path.parts[:-1])
    return FileContext(
        path=path, source=source, tree=tree,
        dir_parts=dir_parts, noqa=_parse_noqa(source),
    )


def iter_python_files(paths: Sequence[Path],
                      exclude_dirs: Iterable[str] = DEFAULT_EXCLUDE_DIRS) -> Iterator[Path]:
    """Yield the ``.py`` files under ``paths`` in deterministic order.

    Directories are walked recursively with ``exclude_dirs`` pruned;
    explicitly named files are yielded even when an exclude pattern
    would have pruned them (so the test suite can lint its violation
    fixtures directly).
    """
    excluded = {e.lower() for e in exclude_dirs}
    for path in paths:
        path = Path(path)
        if path.is_dir():
            # prune on directories *below* the given root only: a root
            # the caller names explicitly is always walked
            n_root = len(path.parts)
            for sub in sorted(path.rglob("*.py")):
                rel_dirs = {p.lower() for p in sub.parts[n_root:-1]}
                if rel_dirs & excluded:
                    continue
                yield sub
        elif path.suffix == ".py":
            yield path
        elif not path.exists():
            raise ParameterError(f"no such file or directory: {path}")


def _lint_contexts(contexts: Sequence[FileContext],
                   select: Optional[Sequence[str]]) -> List[Finding]:
    """Run the rule set over pre-parsed contexts, one shared project.

    ``select`` restricts what is *reported*.  RPR009 (stale noqa) is
    defined against the raw findings of the entire registry, so any
    selection including it — and the default no-selection run — runs
    every rule underneath and filters at reporting time.
    """
    from .dataflow import Project
    from .rules import get_rules, normalize_select
    from .rules.rpr009_stale_noqa import StaleNoqaRule

    selected = (None if select is None
                else frozenset(normalize_select(select)))
    run_all = selected is None or StaleNoqaRule.rule_id in selected
    rules: List["Rule"] = (
        get_rules() if run_all else get_rules(sorted(selected or ())))
    stale_rule = next(
        (r for r in rules if isinstance(r, StaleNoqaRule)), None)
    if selected is not None and StaleNoqaRule.rule_id not in selected:
        stale_rule = None

    project = Project(contexts)
    findings: List[Finding] = []
    for ctx in contexts:
        raw: List[Finding] = []
        for rule in rules:
            if rule.engine_managed:
                continue
            produced = (rule.check_project(ctx, project)
                        if rule.requires_project else rule.check(ctx))
            raw.extend(produced)
        active = [f for f in raw if not ctx.suppressed(f.line, f.rule)]
        if stale_rule is not None:
            # RPR009 findings bypass suppression: a stale directive
            # cannot excuse its own staleness
            active.extend(stale_rule.stale_findings(ctx, raw))
        if selected is not None:
            active = [f for f in active if f.rule in selected]
        findings.extend(active)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(source: str, path: str = "<string>", *,
                select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint an in-memory source string (test/tooling entry point).

    The dataflow project spans just this one source, so cross-module
    references stay unresolved (and are treated as external).
    """
    ctx = build_context(Path(path), source)
    return _lint_contexts([ctx], select)


def lint_file(path: Path, *, select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one file from disk (single-file dataflow project)."""
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, str(path), select=select)


def lint_paths(paths: Sequence[object], *,
               select: Optional[Sequence[str]] = None,
               exclude_dirs: Iterable[str] = DEFAULT_EXCLUDE_DIRS) -> LintReport:
    """Lint every Python file reachable from ``paths``.

    The primary programmatic entry point; the CLI is a thin shell over
    it.  All files are parsed first and share one dataflow project, so
    the interprocedural rules see the whole program.  ``select``
    restricts the reported rule ids (comma- or space-separated);
    unknown ids raise :class:`~repro.exceptions.ParameterError`.
    """
    from .rules import get_rules

    get_rules(select)  # validate rule ids before touching any file
    files = list(iter_python_files([Path(str(p)) for p in paths], exclude_dirs))
    contexts = [
        build_context(path, path.read_text(encoding="utf-8"))
        for path in files
    ]
    findings = _lint_contexts(contexts, select)
    return LintReport(findings=findings, files_checked=len(files))


def format_text(report: LintReport) -> str:
    """Human-readable one-line-per-finding output."""
    lines = [
        f"{f.location()}: {f.rule} [{f.severity}] {f.message}"
        + (f"  ({f.hint})" if f.hint else "")
        for f in report.findings
    ]
    n = len(report.findings)
    noun = "finding" if n == 1 else "findings"
    lines.append(
        f"{n} {noun} in {report.files_checked} file(s)"
        + ("" if n else " -- determinism contracts hold")
    )
    return "\n".join(lines)


def format_json(report: LintReport) -> str:
    """Stable machine-readable output (schema version 1)."""
    payload = {
        "version": 1,
        "files_checked": report.files_checked,
        "counts": report.counts,
        "findings": [f.to_dict() for f in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
