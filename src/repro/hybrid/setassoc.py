"""Set-associative organization of the fast memory tier (Section III-A).

The whole memory space is divided into ``num_sets`` sets; each set owns
``assoc`` fast-memory blocks ("ways").  Caching happens only within a set.
This module stores the tag/dirty/class/LRU/alloc-generation metadata the
remap table would hold in hardware; the remap-cache timing lives in
``repro.hybrid.remap``.

Entries are plain lists (``[tag, dirty, klass, stamp, hits, gen]``) rather
than objects: the store sits on the hottest path of the simulator, and per
the HPC guides we keep per-access work to a handful of list/dict ops.
"""

from __future__ import annotations

# Entry field indices.
TAG, DIRTY, KLASS, STAMP, HITS, GEN = range(6)


class FastStore:
    """Tag store of the fast tier."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("num_sets and assoc must be >= 1")
        self.num_sets = num_sets
        self.assoc = assoc
        self._ways: list[list[list | None]] = [
            [None] * assoc for _ in range(num_sets)]
        self._index: list[dict[int, int]] = [dict() for _ in range(num_sets)]

    # -- lookups -------------------------------------------------------------

    def lookup(self, set_id: int, block: int) -> int | None:
        """Way holding ``block`` in ``set_id``, or None."""
        return self._index[set_id].get(block)

    def entry(self, set_id: int, way: int) -> list | None:
        return self._ways[set_id][way]

    def valid_ways(self, set_id: int):
        """Iterate (way, entry) over occupied ways of a set."""
        ways = self._ways[set_id]
        for w in range(self.assoc):
            e = ways[w]
            if e is not None:
                yield w, e

    # -- mutations -----------------------------------------------------------

    def touch(self, set_id: int, way: int, now: float, is_write: bool) -> None:
        e = self._ways[set_id][way]
        e[STAMP] = now
        e[HITS] += 1
        if is_write:
            e[DIRTY] = True

    def insert(self, set_id: int, way: int, block: int, klass: str,
               dirty: bool, now: float, gen: int) -> None:
        """Place ``block`` into ``(set_id, way)``; the way must be empty."""
        if self._ways[set_id][way] is not None:
            raise ValueError(f"way {way} of set {set_id} is occupied")
        self._ways[set_id][way] = [block, dirty, klass, now, 0, gen]
        self._index[set_id][block] = way

    def evict(self, set_id: int, way: int) -> list | None:
        """Remove and return the entry at ``(set_id, way)``."""
        e = self._ways[set_id][way]
        if e is None:
            return None
        self._ways[set_id][way] = None
        del self._index[set_id][e[TAG]]
        return e

    def swap(self, set_id: int, way_a: int, way_b: int) -> None:
        """Exchange the contents of two ways of one set (fast-memory swap)."""
        ways = self._ways[set_id]
        ea, eb = ways[way_a], ways[way_b]
        ways[way_a], ways[way_b] = eb, ea
        idx = self._index[set_id]
        if ea is not None:
            idx[ea[TAG]] = way_b
        if eb is not None:
            idx[eb[TAG]] = way_a

    # -- victim helpers (policies refine; these are the common cases) --------

    def free_way(self, set_id: int, candidates) -> int | None:
        ways = self._ways[set_id]
        for w in candidates:
            if ways[w] is None:
                return w
        return None

    def lru_way(self, set_id: int, candidates) -> int | None:
        """Least-recently-used way among ``candidates`` (occupied only)."""
        ways = self._ways[set_id]
        best, best_stamp = None, None
        for w in candidates:
            e = ways[w]
            if e is None:
                continue
            if best_stamp is None or e[STAMP] < best_stamp:
                best, best_stamp = w, e[STAMP]
        return best

    def min_hits_way(self, set_id: int, candidates) -> int | None:
        """Fewest-hits-since-insert way (ProFess's reuse-aware MDM victim)."""
        ways = self._ways[set_id]
        best, best_key = None, None
        for w in candidates:
            e = ways[w]
            if e is None:
                continue
            key = (e[HITS], e[STAMP])
            if best_key is None or key < best_key:
                best, best_key = w, key
        return best

    # -- introspection ---------------------------------------------------------

    def occupancy(self) -> int:
        return sum(len(d) for d in self._index)

    def occupancy_by_class(self) -> dict[str, int]:
        # A plain scan, not valid_ways(): callers run it every epoch.
        out = {"cpu": 0, "gpu": 0}
        for ways in self._ways:
            for e in ways:
                if e is not None:
                    k = e[KLASS]
                    out[k] = out.get(k, 0) + 1
        return out

    def check_consistency(self) -> None:
        """Invariant check used by tests: index and ways agree."""
        for s in range(self.num_sets):
            idx = self._index[s]
            seen = {}
            for w, e in self.valid_ways(s):
                seen[e[TAG]] = w
            if seen != idx:
                raise AssertionError(f"set {s}: index {idx} != ways {seen}")
