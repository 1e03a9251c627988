"""Layer map and per-thread profiling for the benchmark's per-layer metrics.

Every per-layer number is named after a ``src/repro`` module.  This file
says which layer each module (and, in the two optimized engines, each
class) is charged to, profiles a region with one ``cProfile.Profile``
per thread, and folds the merged profile onto the layers:

* a function defined under ``src/repro`` is charged to its own layer;
* a builtin or stdlib function is charged to the repro layer that called
  it, split by caller edge (so ``posix.fsync`` lands in
  ``service.journal``, ``_heapq`` in ``engine.events`` and ``pickle`` in
  ``experiments.cache``);
* a blocking wait (lock acquire, ``select``/``epoll``, ``sleep``, socket
  receive) is charged to ``wait``, whoever called it;
* anything left — the benchmark's own code, thread bootstrap frames —
  is ``other``, and ``bench.coverage`` is ``1 - other.share``.
"""

from __future__ import annotations

import ast
import cProfile
import os
import pstats
import threading
from pathlib import Path

#: Layer names in report order.
LAYERS = (
    "traces.gen", "traces.columns", "experiments.designs",
    "engine.simulator", "engine.events", "engine.agents", "mem.channel",
    "hybrid.controller", "hybrid.policies", "core.hydrogen", "core.tokens",
    "core.tuner", "engine.stats", "experiments.sweep", "experiments.cache",
    "service.server", "service.schema", "service.journal",
    "service.client", "telemetry", "wait", "other",
)

#: Layer of each module, by path under ``src/repro``.  Every module of
#: the simulator and service packages must appear here (the self-test
#: fails on a new module without a layer); top-level modules the
#: workloads reach are listed too.  Unlisted repro modules (the linter,
#: the CLI) count as ``other``.
MODULES = {
    "traces/__init__.py": "traces.gen",
    "traces/base.py": "traces.gen",
    "traces/cpu.py": "traces.gen",
    "traces/gpu.py": "traces.gen",
    "traces/io.py": "traces.gen",
    "traces/llm.py": "traces.gen",
    "traces/mixes.py": "traces.gen",
    "engine/__init__.py": "engine.simulator",
    "engine/_kernels.py": "mem.channel",
    "engine/agents.py": "engine.agents",
    "engine/batch.py": "engine.simulator",
    "engine/events.py": "engine.events",
    "engine/fastpath.py": "engine.simulator",
    "engine/simulator.py": "engine.simulator",
    "engine/stats.py": "engine.stats",
    "hybrid/__init__.py": "hybrid.controller",
    "hybrid/controller.py": "hybrid.controller",
    "hybrid/remap.py": "hybrid.controller",
    "hybrid/setassoc.py": "hybrid.controller",
    "hybrid/policies/__init__.py": "hybrid.policies",
    "hybrid/policies/base.py": "hybrid.policies",
    "hybrid/policies/hashcache.py": "hybrid.policies",
    "hybrid/policies/llm.py": "hybrid.policies",
    "hybrid/policies/nopart.py": "hybrid.policies",
    "hybrid/policies/profess.py": "hybrid.policies",
    "hybrid/policies/setpart.py": "hybrid.policies",
    "hybrid/policies/waypart.py": "hybrid.policies",
    "core/__init__.py": "core.hydrogen",
    "core/hydrogen.py": "core.hydrogen",
    "core/partition.py": "core.hydrogen",
    "core/tokens.py": "core.tokens",
    "core/tuner.py": "core.tuner",
    "core/reconfig.py": "core.tuner",
    "mem/__init__.py": "mem.channel",
    "mem/channel.py": "mem.channel",
    "mem/device.py": "mem.channel",
    "mem/timing.py": "mem.channel",
    "mem/energy.py": "engine.stats",
    "experiments/__init__.py": "experiments.sweep",
    "experiments/cache.py": "experiments.cache",
    "experiments/designs.py": "experiments.designs",
    "experiments/figures.py": "experiments.sweep",
    "experiments/report.py": "experiments.sweep",
    "experiments/resilience.py": "experiments.sweep",
    "experiments/runner.py": "experiments.sweep",
    "experiments/sweep.py": "experiments.sweep",
    "service/__init__.py": "service.server",
    "service/client.py": "service.client",
    "service/health.py": "service.server",
    "service/journal.py": "service.journal",
    "service/queue.py": "service.server",
    "service/schema.py": "service.schema",
    "service/server.py": "service.server",
    "api.py": "experiments.sweep",
    "faults.py": "experiments.sweep",
    "config.py": "experiments.designs",
    "config_io.py": "experiments.designs",
    "telemetry.py": "telemetry",
    "sanitize.py": "telemetry",
}

#: Classes (and nested functions) of the optimized engines, charged by
#: line range to the module they specialize instead of to their file.
OVERRIDES = {
    "traces/base.py": {
        "TraceColumns": "traces.columns",
        "Trace.columns": "traces.columns",
    },
    "engine/fastpath.py": {
        "FastChannel": "mem.channel",
        "_FastDevice": "mem.channel",
        "FastHybridController": "hybrid.controller",
        "FastAgent": "engine.agents",
        "FastEventQueue": "engine.events",
    },
    "engine/batch.py": {
        "_BatchChannel": "mem.channel",
        "_BatchDevice": "mem.channel",
        "_BatchController": "hybrid.controller",
        "_advance_cell.lookup": "hybrid.controller",
        "_BatchAgent": "engine.agents",
        "_advance_cell.pump": "engine.agents",
    },
}

#: Substrings of the profiler's names for builtins that block: their
#: time is waiting, not work, whichever layer called them.
WAIT_MARKERS = (
    "acquire' of '_thread.", "<built-in method time.sleep>",
    "of 'select.epoll' objects>", "<built-in method select.select>",
    "'recv' of '_socket.socket'", "'recv_into' of '_socket.socket'",
    "'accept' of '_socket.socket'", "'connect' of '_socket.socket'",
    "'get' of '_queue.SimpleQueue'", "<built-in method posix.waitpid>",
)


def _qualified_ranges(path: Path, names: dict[str, str]
                      ) -> list[tuple[int, int, str]]:
    """``(first_line, last_line, layer)`` of each named class/def."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found: dict[str, tuple[int, int, str]] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                qual = prefix + child.name
                if qual in names:
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[qual] = (first, child.end_lineno or first,
                                   names[qual])
                walk(child, qual + ".")
    walk(tree, "")
    missing = sorted(set(names) - set(found))
    if missing:
        raise LookupError(f"{path}: layer overrides name code that does "
                          f"not exist: {missing}")
    return list(found.values())


class LayerMap:
    """Resolves a profiled function's code location to its layer."""

    def __init__(self, repro_root: Path) -> None:
        self.root = os.path.abspath(repro_root) + os.sep
        self._ranges = {
            rel: sorted(_qualified_ranges(Path(self.root) / rel, names),
                        key=lambda r: r[1] - r[0])
            for rel, names in OVERRIDES.items()}
        self._memo: dict[tuple[str, int], str | None] = {}

    def layer_of(self, filename: str, lineno: int) -> str | None:
        """Layer of code defined at ``filename:lineno``; None if not repro."""
        key = (filename, lineno)
        if key not in self._memo:
            self._memo[key] = self._resolve(filename, lineno)
        return self._memo[key]

    def _resolve(self, filename: str, lineno: int) -> str | None:
        path = os.path.abspath(filename)
        if not path.startswith(self.root):
            return None
        rel = path[len(self.root):].replace(os.sep, "/")
        for first, last, layer in self._ranges.get(rel, ()):
            if first <= lineno <= last:      # innermost range first
                return layer
        return MODULES.get(rel, "other")


class ThreadProfiler:
    """One ``cProfile.Profile`` per thread over a region.

    :meth:`start` profiles the calling thread and, through
    ``threading.setprofile``, every thread started afterwards (the
    campaign server, its executor, client threads); :meth:`stop` ends
    the region and returns the merged ``pstats.Stats``.  Threads started
    inside the region must have ended before :meth:`stop`.
    """

    def __init__(self) -> None:
        self.profiles: list[cProfile.Profile] = []
        self._lock = threading.Lock()

    def _begin_thread(self, frame, event, arg) -> None:
        prof = cProfile.Profile()
        with self._lock:
            self.profiles.append(prof)
        prof.enable()           # replaces this hook in the new thread

    def start(self) -> None:
        main = cProfile.Profile()
        self.profiles.append(main)
        threading.setprofile(self._begin_thread)
        main.enable()

    def stop(self) -> pstats.Stats:
        self.profiles[0].disable()
        threading.setprofile(None)
        merged = pstats.Stats()
        for prof in self.profiles:
            prof.create_stats()
            if prof.stats:
                merged.add(prof)
        return merged


def _is_wait(func: tuple[str, int, str]) -> bool:
    return func[0] == "~" and any(m in func[2] for m in WAIT_MARKERS)


def attribute(stats: pstats.Stats, layers: LayerMap
              ) -> dict[str, dict[str, float]]:
    """Fold a merged profile onto :data:`LAYERS`.

    Returns ``{layer: {"self_s", "calls"}}``.  A function outside repro
    is split across its callers by edge (time by edge self time, calls
    by edge call count); a caller that is itself outside repro passes
    its part up the same way, weighted by edge cumulative time, until a
    repro frame or a root (``other``).  Edges that close a recursion
    cycle are skipped.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})
    out = {name: {"self_s": 0.0, "calls": 0.0} for name in LAYERS}
    memo: dict[tuple, dict[str, float]] = {}

    def own(func) -> str | None:
        if _is_wait(func):
            return "wait"
        return layers.layer_of(func[0], func[1])

    def split(edges: dict, index: int, stack: frozenset) -> dict[str, float]:
        weights = {c: e[index] for c, e in edges.items() if c not in stack}
        total = sum(weights.values())
        if not weights:
            return {"other": 1.0}
        if total <= 0:
            weights = {c: 1.0 for c in weights}
            total = float(len(weights))
        acc: dict[str, float] = {}
        for caller, w in weights.items():
            for layer, share in owner(caller, stack).items():
                acc[layer] = acc.get(layer, 0.0) + share * w / total
        return acc

    def owner(func, stack: frozenset) -> dict[str, float]:
        """Share of ``func``'s frames each layer is responsible for."""
        layer = own(func)
        if layer is not None:
            return {layer: 1.0}
        if func not in memo:
            edges = table[func][4] if func in table else {}
            memo[func] = split(edges, 3, stack | {func})
        return memo[func]

    for func, (_cc, nc, tt, _ct, callers) in table.items():
        layer = own(func)
        if layer is not None:
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            continue
        guard = frozenset({func})
        for name, share in split(callers, 2, guard).items():
            out[name]["self_s"] += tt * share
        for name, share in split(callers, 1, guard).items():
            out[name]["calls"] += nc * share
    return out
