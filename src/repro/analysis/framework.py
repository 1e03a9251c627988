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
  suppressions on the line a finding is reported at, and returns
  findings sorted by location;
* the domain rules' shared vocabulary — which files are simulation
  state (:data:`SIM_STATE_DIRS`), which iterables have no reproducible
  order (:func:`unordered`, :func:`loop_iterables`), which values are
  fresh mutable containers (:func:`mutable_container`), and where an
  RNG constructor takes its seed (:data:`RNG_CTORS`, :func:`seed_arg`).

Concrete rules live in the sibling modules (``determinism``,
``seedflow``, ``isolation``, ``floatorder``, ``purity``,
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
    both for reporting and for directory-scoped checks.  ``noqa`` maps
    each line carrying a marker to the rule ids it suppresses (None for
    a bare ``# noqa``); a marker covers its own line only.
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
    """Whether a ``# noqa`` on the finding's own line covers its rule."""
    if module is None or finding.line not in module.noqa:
        return False
    rules = module.noqa[finding.line]
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


# -- the domain rules' shared vocabulary -------------------------------------

#: Path components that mark a module as simulation state: nondeterminism
#: or shared state there changes results, not just logs.
SIM_STATE_DIRS = frozenset({"core", "engine", "hybrid", "mem"})

#: Constructors whose call builds a fresh mutable container.
MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter", "ChainMap", "array",
})

#: RNG constructor call chains; each takes its seed as :func:`seed_arg`.
RNG_CTORS = frozenset({
    ("random", "Random"),
    ("np", "random", "default_rng"), ("numpy", "random", "default_rng"),
    ("np", "random", "RandomState"), ("numpy", "random", "RandomState"),
    ("np", "random", "Generator"), ("numpy", "random", "Generator"),
})

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def unordered(node: ast.AST, *, dict_views: bool) -> str | None:
    """Why iterating ``node`` has no reproducible order, else None.

    A bare set (literal, comprehension, ``set()``/``frozenset()`` call,
    or set algebra with one as an operand) always counts: its order is
    salted per process.  With ``dict_views``, so does an argument-free
    ``.items()``/``.keys()``/``.values()``, whose order is insertion
    order.  ``sorted(...)`` around either fixes the order.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a bare set"
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return (unordered(node.left, dict_views=dict_views)
                or unordered(node.right, dict_views=dict_views))
    if not isinstance(node, ast.Call):
        return None
    if isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset"):
        return "a bare set"
    if dict_views and isinstance(node.func, ast.Attribute) \
            and node.func.attr in ("items", "keys", "values") \
            and not node.args and not node.keywords:
        return f"an unsorted .{node.func.attr}() view"
    return None


def loop_iterables(tree: ast.AST) -> Iterator[ast.expr]:
    """The iterated expression of every ``for`` loop and comprehension."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter


def mutable_container(node: ast.AST | None) -> str | None:
    """The kind of fresh mutable container ``node`` builds, else None.

    List, dict and set displays and comprehensions count, and so does a
    call to a :data:`MUTABLE_CTORS` constructor, bare or qualified
    (``deque()``, ``collections.deque()``).
    """
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        chain = dotted_name(node.func)
        if chain and chain[-1] in MUTABLE_CTORS:
            return f"{chain[-1]}()"
    return None


def seed_arg(call: ast.Call) -> ast.expr | None:
    """The expression an RNG constructor call takes its seed from.

    The first positional argument, else a ``seed=``/``x=`` keyword or
    ``**kwargs``; None when the call is unseeded.
    """
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg in (None, "seed", "x"):
            return kw.value
    return None
