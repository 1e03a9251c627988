"""MUT01 — no-mutable-default rule (plus hashing-path ordering ban).

A mutable default argument (``def f(x, acc=[])``) is evaluated once and
shared across calls — in a simulator that means state silently leaking
between supposedly independent runs, the exact failure mode the sweep
engine's bit-identical guarantee forbids.  The rule flags every default
that :func:`~repro.analysis.framework.mutable_container` recognizes:
list / dict / set displays and comprehensions and calls to the mutable
constructors (``list()``, ``deque()``, ``collections.ChainMap()``, ...).

The second half guards the *hashing paths* — modules whose output must
be canonical across processes and Python builds (``hybrid/remap.py``,
``experiments/cache.py``, ``experiments/sweep.py``, ``config_io.py``):
a loop or comprehension there over a dict view (``.items()`` /
``.keys()`` / ``.values()``), a set or set algebra not wrapped in
``sorted(...)`` bakes insertion / salt-dependent order into digests and
cache keys.  ``config_digest`` and ``freeze_kw`` exist precisely
because of this; the rule keeps the property from regressing.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.framework import (Finding, Module, Rule,
                                      loop_iterables, mutable_container,
                                      unordered)

#: Module suffixes whose iteration order feeds digests / cache keys.
HASHING_PATH_SUFFIXES = ("hybrid/remap.py", "experiments/cache.py",
                         "experiments/sweep.py", "config_io.py")


class MutableDefaultRule(Rule):
    """No mutable default arguments; canonical order in hashing paths."""

    rule_id = "MUT01"
    name = "no-mutable-default"
    description = ("mutable default arguments leak state across calls; "
                   "hashing-path modules must not iterate dict views or "
                   "sets unsorted (digest/cache-key canonicality)")

    def check(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                yield from self._check_defaults(module, node)
        if not module.rel.endswith(HASHING_PATH_SUFFIXES):
            return
        for iterable in loop_iterables(module.tree):
            reason = unordered(iterable, dict_views=True)
            if reason:
                yield self.finding(
                    module, iterable,
                    f"iteration over {reason} in a hashing-path module "
                    f"bakes nondeterministic order into digests/cache "
                    f"keys; wrap in sorted(...)")

    def _check_defaults(self, module: Module,
                        func: ast.AST) -> Iterator[Finding]:
        args = func.args
        defaults = list(args.defaults) + [d for d in args.kw_defaults
                                          if d is not None]
        for default in defaults:
            kind = mutable_container(default)
            if kind is not None:
                name = getattr(func, "name", "<lambda>")
                yield self.finding(
                    module, default,
                    f"mutable default {kind} in {name}(): evaluated "
                    f"once and shared across calls; default to None "
                    f"(or use dataclasses.field(default_factory=...))")
