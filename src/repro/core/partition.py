"""Decoupled capacity/bandwidth partitioning of the fast memory (Section IV-A).

Hydrogen associates ways to channels and partitions along both dimensions
independently:

* ``bw`` = B channels are *dedicated* to the CPU (bandwidth isolation);
* ``cap`` = C ways per set belong to the CPU (capacity allocation), with
  C >= B: the ways living on dedicated channels are CPU-owned, and the
  remaining C - B CPU ways are chosen *among the shared-channel ways* by a
  consistent-hashing rank keyed on the set index, so different sets place
  their extra CPU ways on different shared channels and the GPU still
  reaches the full bandwidth of all shared channels.

The way -> channel mapping itself is a per-set rotation and **never
changes** across reconfigurations; only way *ownership* moves, which is
exactly what makes reconfiguration cheap (paper Fig. 3(c): switching bw
from 3:1 to 2:2 touches only the blocks of the single way whose channel
became dedicated).  Ownership changes are minimal under single-step
``cap``/``bw`` moves thanks to the rank ordering (consistent hashing).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """Deterministic 64-bit mixer (SplitMix64 finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def way_rank(set_id: int, way: int) -> int:
    """Consistent-hashing rank of a (set, way) pair."""
    return splitmix64(set_id * 0x100000001B3 + way)


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`splitmix64` over a ``uint64`` array.

    NumPy's uint64 arithmetic wraps at 2**64, which is exactly the
    ``& _MASK`` reduction of the scalar version, so both produce
    bit-identical values for any non-negative input.
    """
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class DecoupledMap:
    """Immutable way->channel / way->owner mapping for one (cap, bw) config.

    ``cap`` is expressed in ``cap_units`` (default: the associativity, i.e.
    whole ways per set).  Low-associativity geometries (Fig. 11's A1) use a
    finer unit so the CPU's capacity share can still be fractional: the
    fractional part is realized by giving ceil vs floor ways to different
    sets, selected by the consistent per-set hash — this is the decoupled
    *set*-partitioning analog the paper discusses in Section IV-F.
    """

    def __init__(self, assoc: int, channels: int, cap: int, bw: int,
                 cap_units: int | None = None) -> None:
        cap_units = assoc if cap_units is None else cap_units
        if not 0 <= bw < channels:
            raise ValueError(f"bw={bw} must be in [0, channels)")
        if not 0 <= cap <= cap_units:
            raise ValueError(f"cap={cap} must be in [0, cap_units]")
        self.assoc = assoc
        self.channels = channels
        self.cap = cap
        self.bw = bw
        self.cap_units = cap_units
        #: CPU capacity target in (possibly fractional) ways per set.
        self.cpu_ways_target = cap * assoc / cap_units
        self._owner_cache: dict[int, tuple[str, ...]] = {}

    def spawn(self, cap: int, bw: int) -> "DecoupledMap":
        """A map of the same family and geometry with new (cap, bw).

        Reconfiguration goes through this hook so subclasses that carry
        extra precomputed state (:class:`VectorDecoupledMap`) survive a
        repartitioning without degrading back to the scalar base class.
        """
        return DecoupledMap(self.assoc, self.channels, cap, bw,
                            self.cap_units)

    # -- geometry (fixed across reconfigurations) ------------------------------

    def rotation(self, set_id: int) -> int:
        """Per-set rotation of the way->channel assignment."""
        return splitmix64(set_id) % self.channels

    def channel(self, set_id: int, way: int) -> int:
        """Fast channel serving (set, way); independent of cap/bw."""
        return (way + self.rotation(set_id)) % self.channels

    # -- ownership (the part reconfiguration changes) ---------------------------

    def owners(self, set_id: int) -> tuple[str, ...]:
        """Ownership ('cpu'/'gpu') of every way of ``set_id``."""
        cached = self._owner_cache.get(set_id)
        if cached is not None:
            return cached
        dedicated = [w for w in range(self.assoc)
                     if self.channel(set_id, w) < self.bw]
        shared = [w for w in range(self.assoc) if w not in dedicated]
        target = self.cpu_ways_target
        n_cpu = int(target)
        frac = target - n_cpu
        if frac > 0 and (splitmix64(set_id ^ 0xC0FFEE) / 2**64) < frac:
            n_cpu += 1
        extra = max(0, n_cpu - len(dedicated))
        shared.sort(key=lambda w: way_rank(set_id, w))
        cpu_ways = set(dedicated) | set(shared[:extra])
        owners = tuple("cpu" if w in cpu_ways else "gpu"
                       for w in range(self.assoc))
        self._owner_cache[set_id] = owners
        return owners

    def owner(self, set_id: int, way: int) -> str:
        return self.owners(set_id)[way]

    def ways_of(self, set_id: int, klass: str) -> tuple[int, ...]:
        owners = self.owners(set_id)
        return tuple(w for w in range(self.assoc) if owners[w] == klass)

    def dedicated_cpu_ways(self, set_id: int) -> tuple[int, ...]:
        """CPU ways living on CPU-dedicated channels (the swap targets)."""
        return tuple(w for w in range(self.assoc)
                     if self.channel(set_id, w) < self.bw)

    # -- reconfiguration distance -----------------------------------------------

    def ownership_diff(self, other: "DecoupledMap", set_id: int) -> int:
        """Number of ways of ``set_id`` whose owner differs vs ``other``.

        Used by tests to verify the consistent-hashing property: a
        single-step cap or bw move flips at most ~1 way per set on average.
        """
        a, b = self.owners(set_id), other.owners(set_id)
        return sum(1 for x, y in zip(a, b) if x != y)


class VectorDecoupledMap(DecoupledMap):
    """A :class:`DecoupledMap` with NumPy-precomputed geometry tables.

    All per-set quantities — the rotation, the way->channel assignment
    and the way-ownership mask — are computed for every set up front in
    a handful of vectorized array operations instead of per (set, way)
    query.  The tables are **bit-identical** to the scalar computation:

    * ``uint64`` wraparound matches the scalar ``& MASK`` reduction;
    * the ``uint64 -> float64`` conversion of the fractional-capacity
      coin matches Python's ``int / 2**64`` (both round to nearest);
    * a stable argsort over the way ranks matches the scalar stable
      ``list.sort`` of the shared ways.

    Queries for ``set_id`` outside ``[0, num_sets)`` fall back to the
    scalar path, so generic helpers (e.g. relocation estimators probing
    arbitrary sets) keep working.
    """

    def __init__(self, assoc: int, channels: int, cap: int, bw: int,
                 cap_units: int | None = None, *, num_sets: int) -> None:
        super().__init__(assoc, channels, cap, bw, cap_units)
        if num_sets < 1:
            raise ValueError("num_sets must be >= 1")
        self.num_sets = num_sets
        sets = np.arange(num_sets, dtype=np.uint64)
        ways = np.arange(assoc, dtype=np.int64)
        rot = (splitmix64_array(sets) % np.uint64(channels)).astype(np.int64)
        #: (num_sets, assoc) fast channel of every way.
        self._chan: np.ndarray = (ways[None, :] + rot[:, None]) % channels
        dedicated = self._chan < bw
        target = self.cpu_ways_target
        base = int(target)
        frac = target - base
        n_cpu = np.full(num_sets, base, dtype=np.int64)
        if frac > 0:
            coin = (splitmix64_array(sets ^ np.uint64(0xC0FFEE))
                    .astype(np.float64) / 2.0 ** 64)
            n_cpu = n_cpu + (coin < frac)
        extra = np.maximum(n_cpu - dedicated.sum(axis=1), 0)
        rank = splitmix64_array(sets[:, None] * np.uint64(0x100000001B3)
                                + ways.astype(np.uint64)[None, :])
        # Shared ways first (sorted by rank, ties in way order), then the
        # dedicated ways: two stable argsorts == the scalar stable sort.
        by_rank = np.argsort(rank, axis=1, kind="stable")
        ded_sorted = np.take_along_axis(dedicated, by_rank, axis=1)
        order = np.take_along_axis(
            by_rank, np.argsort(ded_sorted, axis=1, kind="stable"), axis=1)
        take = ways[None, :] < extra[:, None]
        sel = np.zeros_like(dedicated)
        np.put_along_axis(sel, order, take, axis=1)
        #: (num_sets, assoc) True where the way is CPU-owned.
        self._cpu_mask: np.ndarray = dedicated | sel
        self._ded_cache: dict[int, tuple[int, ...]] = {}

    def spawn(self, cap: int, bw: int) -> "VectorDecoupledMap":
        return VectorDecoupledMap(self.assoc, self.channels, cap, bw,
                                  self.cap_units, num_sets=self.num_sets)

    def rotation(self, set_id: int) -> int:
        if 0 <= set_id < self.num_sets:
            return int(self._chan[set_id, 0])  # channel of way 0 == rotation
        return super().rotation(set_id)

    def channel(self, set_id: int, way: int) -> int:
        if 0 <= set_id < self.num_sets:
            return int(self._chan[set_id, way])
        return super().channel(set_id, way)

    def owners(self, set_id: int) -> tuple[str, ...]:
        cached = self._owner_cache.get(set_id)
        if cached is not None:
            return cached
        if not 0 <= set_id < self.num_sets:
            return super().owners(set_id)
        mask = self._cpu_mask[set_id]
        owners = tuple("cpu" if mask[w] else "gpu"
                       for w in range(self.assoc))
        self._owner_cache[set_id] = owners
        return owners

    def dedicated_cpu_ways(self, set_id: int) -> tuple[int, ...]:
        if not 0 <= set_id < self.num_sets:
            return super().dedicated_cpu_ways(set_id)
        cached = self._ded_cache.get(set_id)
        if cached is None:
            row = self._chan[set_id]
            cached = tuple(w for w in range(self.assoc) if row[w] < self.bw)
            self._ded_cache[set_id] = cached
        return cached


def coupled_channel(set_id: int, way: int, assoc: int, channels: int) -> int:
    """The conventional *coupled* scheme (paper Fig. 3(a)): contiguous ways
    map to contiguous channels, so capacity and bandwidth ratios are tied.
    Used by the WayPart baseline."""
    return (way * channels) // assoc
