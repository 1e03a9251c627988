"""Pluggable AST rule framework for the repository's invariant linter.

The simulator's correctness rests on invariants that are invisible to the
type system: deterministic replay needs constructor-seeded RNGs,
telemetry must stay pure observation, sweep jobs must pickle, the Stats
counter namespace must match its documentation.  This module provides
the machinery to machine-check such properties on every PR:

* :class:`Finding` — one violation (rule id, severity, file, line, col);
* :class:`Rule` — the plugin base class: per-module :meth:`Rule.check`
  plus a cross-module :meth:`Rule.finalize` hook for rules that need the
  whole tree (e.g. the stats-key registry);
* :func:`run_rules` — the driver: walks paths, parses each Python file
  once, feeds every rule, honours ``# noqa`` / ``# noqa: RULE``
  suppressions, and returns findings sorted by location.

Concrete rules live in the sibling modules (``determinism``, ``purity``,
``picklability``, ``statskeys``, ``mutables``, ``apiusage``,
``robustness``, ``style``); the CLI entry point is ``repro lint``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Directories never descended into when expanding lint paths.
SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "venv", "node_modules",
             ".mypy_cache", ".ruff_cache", ".pytest_cache", "build", "dist"}

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<rules>[A-Z0-9,\s]+))?", re.I)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Ordered by location so reports are stable; ``path`` is kept exactly
    as the linted file was addressed (relative paths stay relative).
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line:col: ID message``."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")


class Module:
    """One parsed source file handed to every rule.

    Parsing and the node->parent map are computed once per file and
    shared by all rules; ``rel`` is the path as given (posix form), used
    both for reporting and for directory-scoped checks.
    """

    def __init__(self, path: Path, rel: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self._parents: dict[ast.AST, ast.AST] | None = None
        self.noqa = _parse_noqa(self.lines)
        self._noqa_spans: dict[int, set[str] | None] | None = None

    def parent(self, node: ast.AST) -> ast.AST | None:
        """Enclosing AST node of ``node`` (None for the module root)."""
        if self._parents is None:
            self._parents = {child: parent
                             for parent in ast.walk(self.tree)
                             for child in ast.iter_child_nodes(parent)}
        return self._parents.get(node)

    def parts(self) -> tuple[str, ...]:
        """Path components of ``rel`` (for directory-scoped rules)."""
        return tuple(Path(self.rel).parts)

    def suppressions(self, line: int) -> set[str] | None | str:
        """Effective ``# noqa`` state for findings anchored at ``line``.

        A multi-line statement is one suppression scope: a marker on
        *any* line of its span (for compound statements, the header up
        to the first body statement) reaches findings reported at any
        other line of that span — so ``# noqa`` on the closing paren of
        a wrapped call suppresses the finding at the call's first line.
        Returns the suppressed-rule set, ``None`` for suppress-all, or
        ``"absent"`` when no marker applies.
        """
        direct = self.noqa.get(line, "absent")
        if direct != "absent":
            return direct
        if self._noqa_spans is None:
            self._noqa_spans = self._expand_noqa_spans()
        return self._noqa_spans.get(line, "absent")

    def _expand_noqa_spans(self) -> dict[int, set[str] | None]:
        """Propagate noqa markers across statement line spans.

        Simple statements span ``lineno..end_lineno``; compound
        statements (def/if/for/...) contribute only their header span —
        a marker inside the body must not silence findings on the
        header, and vice versa.
        """
        if not self.noqa:
            return {}
        out: dict[int, set[str] | None] = {}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt):
                continue
            start = node.lineno
            child_lines = [c.lineno for c in ast.iter_child_nodes(node)
                           if isinstance(c, ast.stmt)]
            end = (min(child_lines) - 1 if child_lines
                   else (node.end_lineno or start))
            if end <= start:
                continue  # single-line statement: exact-line map suffices
            marks = [self.noqa[i] for i in range(start, end + 1)
                     if i in self.noqa]
            if not marks:
                continue
            merged: set[str] | None = None  # bare noqa: suppress all
            if all(m is not None for m in marks):
                merged = {r for m in marks if m is not None for r in m}
            for i in range(start, end + 1):
                existing = out.get(i)
                if i not in out:
                    out[i] = set(merged) if merged is not None else None
                elif existing is None or merged is None:
                    out[i] = None
                else:
                    existing.update(merged)
        return out


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id` / :attr:`name` / :attr:`description`
    and implement :meth:`check`; rules needing the whole tree accumulate
    state in :meth:`check` and report from :meth:`finalize`.  Rule
    instances are single-use per :func:`run_rules` invocation.
    """

    rule_id: str = "RULE"
    name: str = "rule"
    severity: str = "error"
    description: str = ""

    def check(self, module: Module) -> Iterable[Finding]:
        """Findings for one parsed module (may be empty)."""
        return ()

    def finalize(self) -> Iterable[Finding]:
        """Cross-module findings, called once after every module."""
        return ()

    def finding(self, module: Module | str, node: ast.AST | None,
                message: str, *, line: int | None = None,
                col: int | None = None) -> Finding:
        """Build a :class:`Finding` at ``node`` (or explicit line/col)."""
        path = module.rel if isinstance(module, Module) else module
        if node is not None:
            line = getattr(node, "lineno", 0)
            col = getattr(node, "col_offset", -1) + 1
        return Finding(path=path, line=line or 0, col=col or 0,
                       rule_id=self.rule_id, severity=self.severity,
                       message=message)


def _parse_noqa(lines: Sequence[str]) -> dict[int, set[str] | None]:
    """``# noqa`` markers: line -> suppressed rule-id set (None = all)."""
    out: dict[int, set[str] | None] = {}
    for i, line in enumerate(lines, start=1):
        if "noqa" not in line:
            continue
        m = _NOQA_RE.search(line)
        if not m:
            continue
        rules = m.group("rules")
        if rules:
            out[i] = {r.strip().upper() for r in rules.split(",") if r.strip()}
        else:
            out[i] = None  # bare noqa suppresses every rule on the line
    return out


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(q for q in p.rglob("*.py")
                                if not SKIP_DIRS.intersection(q.parts))
        else:
            candidates = [p]
        for q in candidates:
            if q not in seen:
                seen.add(q)
                yield q


def load_module(path: Path) -> Module | Finding:
    """Parse one file into a :class:`Module`, or a parse-error finding."""
    rel = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return Finding(path=rel, line=0, col=0, rule_id="PARSE",
                       severity="error", message=f"unreadable file: {exc}")
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return Finding(path=rel, line=exc.lineno or 0, col=exc.offset or 0,
                       rule_id="PARSE", severity="error",
                       message=f"syntax error: {exc.msg}")
    return Module(path, rel, source, tree)


def _suppressed(finding: Finding, module: Module | None) -> bool:
    if module is None:
        return False
    rules = module.suppressions(finding.line)
    if rules == "absent":
        return False
    return rules is None or finding.rule_id.upper() in rules


def run_rules(paths: Iterable[str | Path],
              rules: Sequence[Rule]) -> list[Finding]:
    """Run every rule over every Python file under ``paths``.

    Files are parsed once; per-module findings honour ``# noqa``
    suppressions on their line.  Cross-module findings from
    :meth:`Rule.finalize` are appended afterwards.  The result is
    sorted by (path, line, col).
    """
    findings: list[Finding] = []
    modules: dict[str, Module] = {}
    for path in iter_python_files(paths):
        loaded = load_module(path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            continue
        modules[loaded.rel] = loaded
        for rule in rules:
            for f in rule.check(loaded):
                if not _suppressed(f, loaded):
                    findings.append(f)
    for rule in rules:
        for f in rule.finalize():
            if not _suppressed(f, modules.get(f.path)):
                findings.append(f)
    return sorted(findings)


# -- shared AST helpers ------------------------------------------------------


def dotted_name(node: ast.AST) -> tuple[str, ...]:
    """Name/attribute chain of an expression, e.g. ``a.b.c`` -> (a, b, c).

    Returns () for expressions that are not plain dotted names (calls,
    subscripts, literals): rules treat those as unresolvable.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def str_const(node: ast.AST) -> str | None:
    """The value of a string-constant node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None
