"""Hybrid memory controller: the access flow of paper Fig. 4.

Every LLC-miss request first probes the remap metadata (on-chip SRAM remap
cache, falling back to a 64 B fast-memory read), then either hits in the
fast tier (64 B transfer on the way's channel, possibly followed by a
fast-memory swap or a lazy-reconfiguration invalidation) or misses and goes
to the slow tier (64 B demand access on the critical path; the 256 B block
refill, dirty-victim writeback and remap-table update happen off the
critical path but occupy channel bandwidth — the 7x traffic amplification
of Section IV-B).

Both the cache mode and the flat mode (Section IV-F) are supported.  All
partitioning *decisions* are delegated to a :class:`PartitionPolicy`.

Hot-path note: per-access counters live in plain dicts and are flushed into
the shared :class:`Stats` registry by :meth:`flush_stats` (called on every
epoch tick, so adaptive policies see fresh numbers, and at end of run).
"""

from __future__ import annotations

from typing import Callable

from repro.config import SystemConfig
from repro.engine.events import EventQueue
from repro.engine.stats import Stats
from repro.hybrid.remap import RemapCache
from repro.hybrid.setassoc import DIRTY, GEN, KLASS, TAG, FastStore
from repro.hybrid.policies.base import PartitionPolicy
from repro.mem.device import MemoryDevice
from repro.telemetry import NULL_SINK, Telemetry

#: Per-class counter names, in the order the native loop stores them.
CLASS_KEYS = ("accesses", "remap_fills", "fast_hits", "fast_misses",
               "migrations", "migration_tokens", "bypasses", "queue_bypasses",
               "evictions", "writebacks")


class HybridMemoryController:
    """Two-tier hybrid memory behind the LLC."""

    #: Device implementation; the fast engine substitutes its own.
    _device_cls: type = MemoryDevice

    def __init__(self, cfg: SystemConfig, eq: EventQueue, stats: Stats,
                 policy: PartitionPolicy,
                 telemetry: Telemetry | None = None) -> None:
        self.cfg = cfg
        self.eq = eq
        self.stats = stats
        #: Telemetry sink shared with the policy and its sub-mechanisms
        #: (must be set before ``policy.attach`` reads it below).
        self.telemetry = telemetry if telemetry is not None else NULL_SINK
        self.fast = self._device_cls(cfg.fast, eq, stats, "fast")
        self.slow = self._device_cls(cfg.slow, eq, stats, "slow")
        self.store = FastStore(cfg.num_sets, cfg.hybrid.assoc)
        self.remap = RemapCache(cfg.remap_cache_entries)
        self.policy = policy
        #: "Ideal" ablation switches (Fig. 7): zero-cost fast-memory swaps
        #: and instant, free reconfiguration.
        self.ideal_swap = False
        self.ideal_reconfig = False
        self._block = cfg.hybrid.block
        self._nsets = cfg.num_sets
        self._flat = cfg.hybrid.mode == "flat"
        self._base_extra = cfg.llc.latency + cfg.hybrid.remap_sram_latency
        self._llc_lat = cfg.llc.latency
        self._cnt = {"cpu": dict.fromkeys(CLASS_KEYS, 0),
                     "gpu": dict.fromkeys(CLASS_KEYS, 0)}
        self._mig_qlimit = cfg.hybrid.migrate_queue_limit
        # Direct channel references: skip the MemoryDevice indirection on
        # the per-access hot path.
        self._fast_ch = self.fast.channels
        self._slow_ch = self.slow.channels
        self._nfast = len(self._fast_ch)
        self._nslow = len(self._slow_ch)
        self._lazy_invalidations = 0
        self._swaps = 0
        policy.attach(self)

    # -- entry point ----------------------------------------------------------

    def access(self, klass: str, addr: int, is_write: bool,
               on_complete: Callable[[], None]) -> None:
        """One LLC-miss request from an agent."""
        block = addr // self._block
        set_id = block % self._nsets
        cnt = self._cnt[klass]
        cnt["accesses"] += 1

        if self.remap.probe(set_id):
            self._lookup(klass, addr, block, set_id, is_write, on_complete,
                         self._base_extra)
        else:
            # Remap-table fill: a metadata read from the fast memory sits on
            # the critical path of this access.
            cnt["remap_fills"] += 1
            self._fast_ch[set_id % self._nfast].submit(
                klass, self.cfg.hybrid.remap_entry_bytes, False, set_id * 64,
                lambda: self._lookup(klass, addr, block, set_id, is_write,
                                     on_complete, self._llc_lat))

    # -- hit/miss steering ------------------------------------------------------

    def _lookup(self, klass: str, addr: int, block: int, set_id: int,
                is_write: bool, on_complete: Callable[[], None],
                extra: float) -> None:
        policy = self.policy
        store = self.store
        way = store.lookup(set_id, block)
        chained = False
        if way is None:
            alt = policy.alternate_set(set_id, block)
            if alt is not None:
                away = store.lookup(alt, block)
                if away is not None:
                    set_id, way, chained = alt, away, True
        extra += policy.extra_probe_latency(klass, chained)

        if way is not None:
            self._serve_hit(klass, addr, set_id, way, is_write, on_complete,
                            extra)
        else:
            self._serve_miss(klass, addr, block, set_id, is_write,
                             on_complete, extra)

    def _serve_hit(self, klass: str, addr: int, set_id: int, way: int,
                   is_write: bool, on_complete: Callable[[], None],
                   extra: float) -> None:
        store, policy = self.store, self.policy
        entry = store.entry(set_id, way)
        self._cnt[klass]["fast_hits"] += 1

        misplaced = False
        if not self.ideal_reconfig:
            owner = policy.way_owner(set_id, way)
            if owner != "shared" and owner != entry[KLASS]:
                misplaced = True
            elif entry[GEN] != policy.generation:
                if policy.channel_changed(set_id, way, entry[GEN]):
                    misplaced = True
                else:
                    entry[GEN] = policy.generation
        else:
            entry[GEN] = policy.generation

        channel = policy.way_channel(set_id, way)
        self._fast_ch[channel % self._nfast].submit(
            klass, 64, is_write, addr, on_complete, extra)

        if misplaced:
            # Lazy reconfiguration (Section IV-D): serve the access, then
            # invalidate the misplaced block off the critical path.
            self._lazy_invalidations += 1
            if is_write:
                entry[DIRTY] = True
            evicted = store.evict(set_id, way)
            if evicted is not None and evicted[DIRTY]:
                self._writeback(evicted)
            return

        store.touch(set_id, way, self.eq.now, is_write)
        swap_way = policy.on_fast_hit(set_id, way, entry, klass)
        if swap_way is not None and swap_way != way:
            self._fast_swap(set_id, way, swap_way, klass)

    def _serve_miss(self, klass: str, addr: int, block: int, set_id: int,
                    is_write: bool, on_complete: Callable[[], None],
                    extra: float) -> None:
        policy, store = self.policy, self.store
        cnt = self._cnt[klass]
        cnt["fast_misses"] += 1
        slow_ch = block % self._nslow
        flat = self._flat

        # Finite migration queue: under slow-tier saturation fills are
        # suppressed outright (free bypass), in every design.
        if self._slow_ch[slow_ch].queue_depth >= self._mig_qlimit:
            ins = None
            cnt["queue_bypasses"] += 1
        else:
            ins = policy.pick_insertion(set_id, block, klass)
        migrate = False
        cost = 0
        if ins is not None:
            iset, iway = ins
            victim = store.entry(iset, iway)
            cost = 2 if (flat or (victim is not None and victim[DIRTY])) else 1
            migrate = policy.allow_migration(klass, block, cost, is_write)

        # Demand access: critical-word-first 64 B from the slow tier.  A
        # write that bypasses migration is a direct 64 B slow write; any
        # migrating access reads the line first (write-allocate).
        demand_write = is_write and not migrate
        self._slow_ch[slow_ch].submit(klass, 64, demand_write, addr,
                                      on_complete, extra)

        if not migrate:
            cnt["bypasses"] += 1
            return

        cnt["migrations"] += 1
        cnt["migration_tokens"] += cost
        iset, iway = ins
        victim = store.entry(iset, iway)
        if victim is not None:
            store.evict(iset, iway)
            if flat:
                # Swap: the victim always travels back (read fast, write slow).
                self._swap_out(iset, iway, victim, klass)
            elif victim[DIRTY]:
                self._writeback(victim)
            cnt["evictions"] += 1

        store.insert(iset, iway, block, klass, is_write, self.eq.now,
                     policy.generation)
        # Off-critical-path refill: remaining 192 B from slow, full 256 B
        # write into the way's fast channel, 64 B remap-table update.
        if self._block > 64:
            self._slow_ch[slow_ch].submit(klass, self._block - 64, False, addr)
        fch = policy.way_channel(iset, iway)
        self._fast_ch[fch % self._nfast].submit(
            klass, self._block, True, block * self._block)
        self._fast_ch[iset % self._nfast].submit(klass, 64, True, iset * 64)

    # -- background transfers ---------------------------------------------------

    def _writeback(self, entry: list) -> None:
        """Dirty victim writeback: 256 B to the slow tier."""
        vaddr = entry[TAG] * self._block
        self._cnt[entry[KLASS]]["writebacks"] += 1
        self._slow_ch[entry[TAG] % self._nslow].submit(
            entry[KLASS], self._block, True, vaddr)

    def _swap_out(self, set_id: int, way: int, entry: list, klass: str) -> None:
        """Flat-mode victim transfer: read from fast, write to slow."""
        vaddr = entry[TAG] * self._block
        self.fast.submit(self.policy.way_channel(set_id, way), klass,
                         self._block, False, vaddr)
        self.slow.submit(entry[TAG] % self.cfg.slow.channels, klass,
                         self._block, True, vaddr)
        self._cnt[klass]["writebacks"] += 1

    def _fast_swap(self, set_id: int, way_a: int, way_b: int,
                   klass: str) -> None:
        """Fast-memory swap (Section IV-A): exchange two ways of a set,
        e.g. promoting hot CPU data into a CPU-dedicated channel."""
        store, policy = self.store, self.policy
        self._swaps += 1
        store.swap(set_id, way_a, way_b)
        if self.ideal_swap:
            return
        ch_a = policy.way_channel(set_id, way_a)
        ch_b = policy.way_channel(set_id, way_b)
        blk = self._block
        base = set_id * blk
        # Read both blocks and write them to their new homes (background).
        self.fast.submit(ch_a, klass, blk, False, base)
        self.fast.submit(ch_b, klass, blk, False, base)
        self.fast.submit(ch_a, klass, blk, True, base)
        self.fast.submit(ch_b, klass, blk, True, base)

    # -- telemetry ---------------------------------------------------------------

    def flush_stats(self) -> None:
        """Move local counters into the shared registry (cheap, periodic)."""
        st = self.stats
        for klass, counters in self._cnt.items():
            for key, val in counters.items():
                if val:
                    st.add(f"{klass}.{key}", val)
                    counters[key] = 0
        if self._lazy_invalidations:
            st.add("reconfig.lazy_invalidations", self._lazy_invalidations)
            self._lazy_invalidations = 0
        if self._swaps:
            st.add("swap.count", self._swaps)
            self._swaps = 0
        self.fast.flush_stats()
        self.slow.flush_stats()

    def live_count(self, klass: str, key: str) -> float:
        """Up-to-the-event counter value (flushed + pending local part)."""
        return self.stats.get(f"{klass}.{key}") + self._cnt[klass][key]

    def occupancy_by_class(self) -> dict[str, int]:
        return self.store.occupancy_by_class()

    def relocation_backlog(self, sample_sets: int = 256) -> float:
        """Estimated resident blocks awaiting lazy invalidation.

        Counts, over a sampled subset of sets, blocks whose way ownership
        no longer matches their class — the backlog the lazy
        reconfiguration mechanism (Section IV-D) drains as accesses touch
        them — and scales the count to the full set population.
        """
        if self.ideal_reconfig:
            return 0.0
        policy, store = self.policy, self.store
        nsets = self._nsets
        step = max(1, nsets // min(sample_sets, nsets))
        sampled = range(0, nsets, step)
        count = 0
        for s in sampled:
            for way, entry in store.valid_ways(s):
                owner = policy.way_owner(s, way)
                if owner != "shared" and owner != entry[KLASS]:
                    count += 1
        return count * (nsets / len(sampled))
