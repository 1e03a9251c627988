"""PCK01 — sweep-picklability rule.

The sweep engine (``repro.experiments.sweep``) fans jobs out through a
``ProcessPoolExecutor``: every ``SweepJob`` and everything reachable
from it crosses a process boundary through ``pickle``.  Lambdas and
functions defined inside another function are not picklable, so passing
one into a sweep entry point works in the serial path and then explodes
(or silently serializes wrong state) the first time someone runs with
``--jobs``.  PR 1 documented this requirement; this rule enforces it at
the call sites.

Flagged: a ``lambda`` anywhere inside an argument to ``sweep_grid`` /
``corun_grid`` / ``SweepJob`` / ``<engine>.run(...)``, or a reference
to a nested (locally defined) function passed as such an argument.  The
``progress=`` keyword is exempt — progress callbacks stay in the parent
process and are never pickled.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.framework import Finding, Module, Rule, dotted_name

#: Free functions / constructors whose arguments end up pickled.
ENTRY_FUNCS = frozenset({"sweep_grid", "corun_grid", "SweepJob"})

#: Methods whose arguments end up pickled, keyed on a receiver whose
#: name mentions the engine (``engine.run(jobs)``, ``SweepEngine().run``).
ENTRY_METHODS = frozenset({"run", "submit"})

#: Keyword arguments that stay in the parent process (never pickled).
PARENT_SIDE_KWARGS = frozenset({"progress"})


def _is_entry_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in ENTRY_FUNCS
    if isinstance(func, ast.Attribute):
        if func.attr in ENTRY_FUNCS:
            return True  # sweep.sweep_grid(...), module-qualified
        if func.attr in ENTRY_METHODS:
            chain = dotted_name(func.value)
            return any("engine" in part.lower() for part in chain)
    return False


class SweepPicklabilityRule(Rule):
    """No lambdas or nested functions handed to the sweep engine."""

    rule_id = "PCK01"
    name = "sweep-picklability"
    description = ("sweep jobs cross a process boundary via pickle: "
                   "lambdas and nested functions must not be passed "
                   "into sweep entry points")

    def check(self, module: Module) -> Iterable[Finding]:
        yield from self._visit(module, module.tree, nested=frozenset(),
                               depth=0)

    def _visit(self, module: Module, node: ast.AST, nested: frozenset[str],
               depth: int) -> Iterator[Finding]:
        """Walk with a scope stack tracking locally defined functions."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Functions defined anywhere inside *this* def are local
                # to it and therefore unpicklable as references.
                inner = frozenset(
                    stmt.name for stmt in ast.walk(child)
                    if isinstance(stmt, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and stmt is not child)
                yield from self._visit(module, child, inner, depth + 1)
                continue
            if isinstance(child, ast.Call) and _is_entry_call(child):
                yield from self._check_args(module, child, nested, depth)
            yield from self._visit(module, child, nested, depth)

    def _check_args(self, module: Module, call: ast.Call,
                    nested: frozenset[str],
                    depth: int) -> Iterator[Finding]:
        args = list(call.args) + [kw.value for kw in call.keywords
                                  if kw.arg not in PARENT_SIDE_KWARGS]
        for arg in args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    yield self.finding(
                        module, sub,
                        "lambda passed into a sweep entry point is not "
                        "picklable; use a module-level function or a "
                        "frozen dataclass job")
                elif (isinstance(sub, ast.Name) and depth > 0
                        and sub.id in nested
                        and not _called_directly(arg, sub)):
                    yield self.finding(
                        module, sub,
                        f"nested function {sub.id!r} passed into a sweep "
                        f"entry point is not picklable; hoist it to "
                        f"module level")


def _called_directly(arg: ast.AST, name: ast.Name) -> bool:
    """True when ``name`` is only the callee of a call inside ``arg``
    (its *result* is passed, which pickles fine)."""
    for sub in ast.walk(arg):
        if isinstance(sub, ast.Call) and sub.func is name:
            return True
    return False
