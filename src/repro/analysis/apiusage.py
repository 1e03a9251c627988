"""API02: forbid cross-package imports of underscore-private names.

A module reaching across package lines for an underscore-private name
(``from repro.experiments.runner import _cycle_ratio``) couples itself
to an implementation detail no public contract protects.  Every such
name has a public home, and API02 keeps it that way: inside
``repro``, importing ``_private`` names (or ``_private`` modules) from
anywhere but the importer's own package fails the build.  A package
importing its *own* private submodule through its
``__init__`` facade (``from repro.engine import _kernels`` inside
``repro/engine/``) stays legal — that is the one place a private module
is an internal detail, not a cross-module dependency.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import Finding, Module, Rule


def _is_private(name: str) -> bool:
    """Single-underscore names; dunders are protocol, not privacy."""
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _importer_module(parts: tuple[str, ...]) -> tuple[str, ...] | None:
    """Dotted-module path of a source file inside the ``repro`` tree.

    ``("src", "repro", "engine", "batch.py")`` becomes ``("repro",
    "engine", "batch")``; an ``__init__.py`` maps to its package
    (``("repro", "engine")``).  Returns None outside the tree.
    """
    if "repro" not in parts:
        return None
    segs = list(parts[parts.index("repro"):])
    leaf = segs[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    if leaf == "__init__":
        segs.pop()
    else:
        segs[-1] = leaf
    return tuple(segs)


class PrivateImportRule(Rule):
    """Flag cross-package imports of ``_private`` names inside ``repro``."""

    rule_id = "API02"
    name = "private-import"
    severity = "error"
    description = ("underscore-private names stay inside their package; "
                   "cross-module imports must use public names")

    def check(self, module: Module) -> Iterable[Finding]:
        importer = _importer_module(module.parts())
        if importer is None:
            return
        # The package whose internals this file may legitimately see:
        # its own package (for __init__.py, the package it defines).
        own_pkg = importer if module.parts()[-1] == "__init__.py" \
            else importer[:-1]
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module:
                sources = [node.module]
            elif isinstance(node, ast.Import):
                sources = [alias.name for alias in node.names]
            else:
                continue
            for name in sources:
                source = tuple(name.split("."))
                if source[0] != "repro":
                    continue
                # Private module segments in the source path: legal only
                # when the private module lives in the importer's own
                # package (e.g. repro.engine._kernels from repro/engine/).
                depth = next((d for d, seg in enumerate(source[1:], start=1)
                              if _is_private(seg) and source[:d] != own_pkg),
                             0)
                if depth:
                    yield self.finding(
                        module, node,
                        f"import of private module {name}; only "
                        f"{'.'.join(source[:depth])} may reach inside it "
                        f"— use a public name")
                elif isinstance(node, ast.ImportFrom) and source != own_pkg:
                    for alias in node.names:
                        if _is_private(alias.name):
                            yield self.finding(
                                module, node,
                                f"cross-module import of private "
                                f"{name}.{alias.name}; promote it or use "
                                f"the public name")
