#!/usr/bin/env python
"""Strict docs check: public API must be docstringed and documented.

Walks the public surface — ``repro.__all__`` and
``repro.experiments.__all__`` — and fails (non-zero exit) if any public
class/function lacks a docstring or is never mentioned in
``docs/api.md``.  Also executes every ```python snippet of the pages
listed in ``EXECUTED_DOCS`` (``docs/api.md``, ``docs/workloads.md``,
``docs/sanitize.md`` and ``docs/service.md``), so a page whose examples
rot fails the build.  Run directly
(``python scripts/check_docs.py``) or via the tier-1 suite
(``tests/test_check_docs.py``).
"""

from __future__ import annotations

import inspect
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
API_DOC = REPO / "docs" / "api.md"

#: Pages whose ```python blocks must execute (shared namespace per
#: page, top to bottom — pages may build on their own snippets).
EXECUTED_DOCS = (API_DOC,
                 REPO / "docs" / "workloads.md",
                 REPO / "docs" / "sanitize.md",
                 REPO / "docs" / "service.md")

_SNIPPET = re.compile(r"```python\n(.*?)```", re.DOTALL)

#: Public modules whose ``__all__`` defines the documented surface.
PUBLIC_MODULES = ("repro", "repro.api", "repro.experiments",
                  "repro.analysis", "repro.service")


def public_symbols() -> list[tuple[str, str, object]]:
    """(module, name, object) for every entry of the public __all__s."""
    sys.path.insert(0, str(REPO / "src"))
    out = []
    for modname in PUBLIC_MODULES:
        mod = __import__(modname, fromlist=["__all__"])
        for name in mod.__all__:
            if name.startswith("__"):  # dunders like __version__
                continue
            out.append((modname, name, getattr(mod, name)))
    return out


def check(symbols=None, doc_text: str | None = None) -> list[str]:
    """Return a list of violation messages (empty = clean)."""
    if symbols is None:
        symbols = public_symbols()
    if doc_text is None:
        doc_text = API_DOC.read_text() if API_DOC.exists() else ""
    problems = []
    if not doc_text:
        problems.append(f"missing API reference: {API_DOC}")
    for modname, name, obj in symbols:
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                problems.append(f"{modname}.{name}: missing docstring")
        if f"`{name}`" not in doc_text:
            problems.append(f"{modname}.{name}: no `{name}` entry "
                            f"in docs/api.md")
    return problems


def run_snippets(paths=EXECUTED_DOCS) -> list[str]:
    """Execute every ```python block of each page; return failures.

    Blocks share one namespace per page, so later snippets may use names
    an earlier one defined; the first failure on a page stops that page
    (the rest would cascade).
    """
    sys.path.insert(0, str(REPO / "src"))
    problems = []
    for path in paths:
        if not path.exists():
            problems.append(f"missing guide page: {path}")
            continue
        ns: dict = {}
        rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for i, code in enumerate(_SNIPPET.findall(path.read_text())):
            try:
                exec(compile(code, f"{rel}:snippet{i}", "exec"), ns)
            except Exception as exc:
                problems.append(f"{rel} snippet {i} failed: {exc!r}")
                break
    return problems


def main(argv=None) -> int:  # noqa: ARG001 - argv kept for CLI symmetry
    problems = check() + run_snippets()
    for p in problems:
        print(f"check_docs: {p}", file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    n = len(public_symbols())
    n_snip = sum(len(_SNIPPET.findall(p.read_text())) for p in EXECUTED_DOCS)
    print(f"check_docs: {n} public symbols documented, "
          f"{n_snip} guide snippets executed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
