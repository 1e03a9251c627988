"""KEY01 — stats-key-registry rule.

The ``Stats`` registry (``repro.engine.stats``) is a flat namespace of
string-keyed counters produced all over the simulator (controller,
channels, reconfigurator) and consumed by telemetry, figures, and
tests.  A typo'd or undocumented key fails *silently*: ``Stats.get``
returns 0.0 for keys that were never written, which is exactly how the
``Stats.delta`` quiescent-counter bug slipped through.  This rule makes
the namespace a checked contract:

* it statically harvests every counter-key literal in the tree —
  ``stats.add("...")`` / ``stats.get("...")`` / ``stats["..."]`` call
  sites, f-string keys like ``f"{p}.bytes_read"`` (formatted parts
  become one-segment wildcards), ``delta(keys=...)`` references,
  ``live_count("gpu", "accesses")`` pairs, and module-level ``*_KEYS``
  tuples (bare entries are expanded with the ``cpu.``/``gpu.`` class
  prefixes, matching ``HybridMemoryController.flush_stats``);
* it parses the authoritative **Stats counter registry** table in
  ``docs/telemetry.md`` (``<class>`` expands to cpu|gpu, ``<tier>`` to
  fast|slow);
* drift in either direction fails the build: a harvested key or
  ``delta(keys=)`` reference with no documented counterpart, or a
  documented counter no code can produce.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.framework import (Finding, Module, Rule, dotted_name,
                                      str_const)

#: Heading of the authoritative table in docs/telemetry.md.
REGISTRY_HEADING = "## Stats counter registry"

#: Placeholder expansions used by the documentation table.
PLACEHOLDERS = {"<class>": ("cpu", "gpu"), "<tier>": ("fast", "slow")}

#: Receiver names recognized as the Stats registry.
_STATS_NAMES = frozenset({"stats", "st"})

_DOC_ROW_RE = re.compile(r"^\|\s*`([^`]+)`")


def _is_stats_receiver(node: ast.AST) -> bool:
    """``stats`` / ``st`` / anything ending in ``.stats``."""
    chain = dotted_name(node)
    return bool(chain) and chain[-1] in _STATS_NAMES


class _Ref:
    """One harvested key reference: exact string or wildcard pattern."""

    __slots__ = ("text", "regex", "path", "line", "col", "kind")

    def __init__(self, text: str, path: str, line: int, col: int,
                 kind: str) -> None:
        self.text = text
        self.path = path
        self.line = line
        self.col = col
        self.kind = kind
        self.regex = re.compile(
            ".".join("[^.]+" if seg == "*" else re.escape(seg)
                     for seg in text.split(".")))

    @property
    def is_pattern(self) -> bool:
        return "*" in self.text

    def matches(self, key: str) -> bool:
        return self.regex.fullmatch(key) is not None


def _fstring_key(node: ast.JoinedStr) -> str | None:
    """Reduce an f-string key to a wildcard pattern (``*`` per formatted
    part); None when nothing constant remains to check against."""
    out = []
    for part in node.values:
        if isinstance(part, ast.FormattedValue):
            out.append("\x00")
        else:
            const = str_const(part)
            if const is None:
                return None
            out.append(const)
    text = "".join(out)
    if "." not in text:
        return None
    segs = ["*" if "\x00" in seg else seg for seg in text.split(".")]
    if all(s == "*" for s in segs):
        return None  # fully dynamic: nothing checkable
    return ".".join(segs)


def _key_arg(node: ast.AST) -> str | None:
    """A checkable key from a call/subscript argument node."""
    const = str_const(node)
    if const is not None:
        return const if "." in const else None
    if isinstance(node, ast.JoinedStr):
        return _fstring_key(node)
    return None


class StatsKeyRegistryRule(Rule):
    """Stats counter keys must match docs/telemetry.md's registry.

    The registry is the first ``docs/telemetry.md`` found searching
    upward from the linted files; ``docs_path`` pins another document
    (the rule's fixture tests inject one).
    """

    rule_id = "KEY01"
    name = "stats-key-registry"
    description = ("every Stats counter key literal (add/get/delta/"
                   "*_KEYS sites) must appear in docs/telemetry.md's "
                   "Stats counter registry, and every documented "
                   "counter must be producible by some code path")

    def __init__(self, docs_path: str | Path | None = None) -> None:
        self._docs_path = Path(docs_path) if docs_path is not None else None
        self._refs: list[_Ref] = []
        self._searched_roots: list[Path] = []

    # -- harvesting --------------------------------------------------------

    def check(self, module: Module) -> Iterable[Finding]:
        if self._docs_path is None:
            self._searched_roots.append(module.path.resolve())
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                self._harvest_call(module, node)
            elif isinstance(node, ast.Subscript):
                self._harvest_subscript(module, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._harvest_keys_tuple(module, node)
        return ()

    def _add_ref(self, module: Module, node: ast.AST, text: str,
                 kind: str) -> None:
        self._refs.append(_Ref(text, module.rel, node.lineno,
                               node.col_offset + 1, kind))

    def _harvest_call(self, module: Module, call: ast.Call) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr in ("add", "get") and _is_stats_receiver(func.value):
            if call.args:
                key = _key_arg(call.args[0])
                if key is not None:
                    self._add_ref(module, call.args[0], key, func.attr)
        elif func.attr == "delta":
            for kw in call.keywords:
                if kw.arg == "keys" and isinstance(kw.value,
                                                   (ast.Tuple, ast.List)):
                    for elt in kw.value.elts:
                        key = str_const(elt)
                        if key is not None:
                            self._add_ref(module, elt, key, "delta")
        elif func.attr == "live_count" and len(call.args) >= 2:
            klass = str_const(call.args[0])
            key = str_const(call.args[1])
            if klass is not None and key is not None:
                self._add_ref(module, call.args[1], f"{klass}.{key}",
                              "live_count")

    def _harvest_subscript(self, module: Module,
                           node: ast.Subscript) -> None:
        if _is_stats_receiver(node.value):
            key = _key_arg(node.slice)
            if key is not None:
                self._add_ref(module, node.slice, key, "subscript")

    def _harvest_keys_tuple(self, module: Module, node: ast.AST) -> None:
        """Module-level ``*_KEYS`` tuples name counters by convention;
        bare (dotless) entries are class-prefixed families."""
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            targets, value = [node.target], node.value
        if value is None or not isinstance(value, (ast.Tuple, ast.List)):
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not any(n.endswith("_KEYS") for n in names):
            return
        for elt in value.elts:
            key = str_const(elt)
            if key is None:
                continue
            if "." in key:
                self._add_ref(module, elt, key, "keys-tuple")
            else:
                for klass in ("cpu", "gpu"):
                    self._add_ref(module, elt, f"{klass}.{key}",
                                  "keys-tuple")

    # -- cross-checking ----------------------------------------------------

    def finalize(self) -> Iterable[Finding]:
        if not self._refs:
            return
        docs = self._resolve_docs()
        if docs is None:
            yield self.finding(
                "docs/telemetry.md", None,
                "Stats counter registry not found: counter keys are in "
                "use but no docs/telemetry.md with a "
                f"{REGISTRY_HEADING!r} section exists", line=0)
            return
        documented = list(self._parse_registry(docs))
        if not documented:
            yield self.finding(
                str(docs), None,
                f"{REGISTRY_HEADING!r} section missing or empty; every "
                f"Stats counter key must be documented there", line=0)
            return
        doc_keys = {key for key, _line, _raw in documented}
        produced = [r for r in self._refs
                    if r.kind in ("add", "keys-tuple")]
        for ref in self._refs:
            if ref.is_pattern:
                if not any(ref.matches(k) for k in doc_keys):
                    yield self._undocumented(ref)
            elif ref.text not in doc_keys:
                yield self._undocumented(ref)
        for key, line, raw in documented:
            if not any(p.matches(key) if p.is_pattern else p.text == key
                       for p in produced):
                yield self.finding(
                    str(docs), None,
                    f"documented counter `{raw}` (expands to {key!r}) is "
                    f"produced by no harvested Stats call site; remove "
                    f"the stale row or restore the producer", line=line)

    def _undocumented(self, ref: _Ref) -> Finding:
        what = ("delta(keys=...) reference" if ref.kind == "delta"
                else f"Stats key ({ref.kind} site)")
        return self.finding(
            ref.path, None,
            f"{what} {ref.text!r} is not in docs/telemetry.md's Stats "
            f"counter registry; document it or fix the key",
            line=ref.line, col=ref.col)

    def _resolve_docs(self) -> Path | None:
        if self._docs_path is not None:
            return self._docs_path if self._docs_path.exists() else None
        for start in self._searched_roots:
            for parent in start.parents:
                candidate = parent / "docs" / "telemetry.md"
                if candidate.exists():
                    return candidate
        return None

    def _parse_registry(self,
                        docs: Path) -> Iterator[tuple[str, int, str]]:
        """(expanded key, doc line, raw key) rows of the registry table."""
        in_section = False
        for lineno, line in enumerate(docs.read_text().splitlines(),
                                      start=1):
            if line.strip().startswith("## "):
                in_section = line.strip() == REGISTRY_HEADING.strip()
                continue
            if not in_section:
                continue
            m = _DOC_ROW_RE.match(line.strip())
            if not m:
                continue
            raw = m.group(1)
            if raw in ("key",):  # header row
                continue
            for key in _expand_placeholders(raw):
                yield key, lineno, raw


def _expand_placeholders(raw: str) -> Iterator[str]:
    for token, values in PLACEHOLDERS.items():
        if token in raw:
            for v in values:
                yield from _expand_placeholders(raw.replace(token, v, 1))
            return
    yield raw
