"""Partitioning-policy interface.

A policy owns every *decision* the hybrid memory controller makes:

* geometry — which fast channel serves each (set, way) and which class owns
  each way (``way_channel`` / ``way_owner`` / ``eligible_ways``);
* migration — whether a miss may migrate its block into the fast tier
  (``allow_migration``) and which victim to use (``pick_victim``);
* pseudo-associativity — an optional alternate set to probe on a miss
  (HAShCache chaining);
* adaptation — per-epoch and per-faucet-period hooks (Hydrogen's tuner and
  token faucet, ProFess's probability updates).

The controller owns the *mechanics*: remap probes, channel traffic,
writebacks, lazy-reconfiguration invalidations, statistics.  A hook the
fast engine runs inline declares its twin there with :func:`inlined`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, TypeVar

from repro.telemetry import NULL_SINK, Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.hybrid.controller import HybridMemoryController

_Hook = TypeVar("_Hook", bound=Callable[..., Any])


def inlined(kernel: str) -> Callable[[_Hook], _Hook]:
    """Declare that the fast engine may run ``kernel`` in place of the
    hook; returns the hook itself, so declaring costs nothing per call."""
    def declare(hook: _Hook) -> _Hook:
        vars(hook)["inline_kernel"] = kernel
        return hook
    return declare


class PartitionPolicy:
    """Base policy: fully shared fast memory, always migrate (the paper's
    non-partitioned baseline behaves exactly like this)."""

    name = "base"

    #: Geometry contract: ``way_channel`` / ``way_owner`` / ``eligible_ways``
    #: must be pure functions of ``(set_id, way, klass)`` for a given
    #: ``generation`` — any geometry change must bump ``generation`` (the
    #: lazy-reconfiguration machinery already requires this).  The fast
    #: engine caches per-set geometry rows under this contract; a policy
    #: whose geometry varies without a generation bump must set this to
    #: False to disable the cache.
    geometry_static = True

    def __init__(self) -> None:
        self.ctrl: "HybridMemoryController | None" = None
        #: Configuration generation, bumped on every repartitioning; blocks
        #: remember the generation they were inserted under (lazy reconfig).
        self.generation = 0
        #: Telemetry sink; replaced with the controller's sink on attach.
        self.telemetry: Telemetry = NULL_SINK

    # -- lifecycle -----------------------------------------------------------

    def attach(self, ctrl: "HybridMemoryController") -> None:
        self.ctrl = ctrl
        self.telemetry = getattr(ctrl, "telemetry", NULL_SINK)

    def detach(self) -> None:
        """Drop the controller link at the end of a run, so a policy the
        caller keeps (or one in a cycle of its own) holds no engine state;
        the controller keeps its ``policy``."""
        self.ctrl = None

    @classmethod
    def kernel(cls, hook: str) -> str:
        """The kernel :func:`inlined` declared on the implementation of
        ``hook`` this class inherits, or "delegate": when it declares none,
        or when the class overrides another hook declaring the same kernel
        (a kernel mirrors all its hooks) without declaring it again."""
        name = getattr(getattr(cls, hook), "inline_kernel", "delegate")
        overridden = any(
            getattr(impl, "inline_kernel", None) == name
            and getattr(getattr(cls, attr), "inline_kernel", None) != name
            for owner in cls.__mro__ for attr, impl in vars(owner).items())
        return "delegate" if overridden else name

    # -- geometry ------------------------------------------------------------

    @inlined("spread")
    def way_channel(self, set_id: int, way: int) -> int:
        """Fast channel serving (set, way).  Default spreads all ways of
        consecutive sets over all channels."""
        return (set_id + way) % self.ctrl.fast.cfg.channels

    @inlined("spread")
    def way_owner(self, set_id: int, way: int) -> str:
        """'cpu' / 'gpu' / 'shared' ownership of a way (the alloc bit)."""
        return "shared"

    @inlined("spread")
    def eligible_ways(self, set_id: int, klass: str) -> tuple[int, ...]:
        """Ways ``klass`` may insert into (and evict from)."""
        return self._all_ways

    # -- decisions -----------------------------------------------------------

    @inlined("always")
    def allow_migration(self, klass: str, block: int, cost: int,
                        is_write: bool) -> bool:
        """May this miss migrate its block?  ``cost`` is the token cost the
        migration would incur (1 refill, 2 with dirty writeback / flat swap)."""
        return True

    @inlined("lru")
    def pick_victim(self, set_id: int, klass: str) -> int | None:
        """Way to fill on migration (free first, else LRU among eligible)."""
        store = self.ctrl.store
        cands = self.eligible_ways(set_id, klass)
        if not cands:
            return None
        free = store.free_way(set_id, cands)
        if free is not None:
            return free
        return store.lru_way(set_id, cands)

    @inlined("no-alternate")
    def alternate_set(self, set_id: int, block: int) -> int | None:
        """Optional second set to probe on a primary miss (chaining)."""
        return None

    @inlined("no-probe")
    def extra_probe_latency(self, klass: str, chained: bool) -> float:
        """Additional tag-probe latency (pseudo-associativity etc.)."""
        return 0.0

    # -- hooks ----------------------------------------------------------------

    @inlined("no-swap")
    def on_fast_hit(self, set_id: int, way: int, entry: list,
                    klass: str) -> int | None:
        """Called on a fast-memory hit; may return a way to swap the hit
        block with (Hydrogen's fast-memory swap), or None."""
        return None

    @inlined("channel-fixed")
    def channel_changed(self, set_id: int, way: int, gen: int) -> bool:
        """Did the physical channel of (set, way) change since generation
        ``gen``?  Stale blocks are lazily invalidated by the controller."""
        return False

    def on_epoch(self, now: float, metrics: dict) -> None:
        """Per-epoch adaptation hook.  ``metrics`` holds per-epoch deltas
        including ``ipc_cpu``/``ipc_gpu``/``weighted_ipc``."""

    def on_faucet(self, now: float) -> None:
        """Token-faucet period hook."""

    def on_phase(self, now: float) -> None:
        """Exploration-phase boundary hook (Section IV-C)."""

    @inlined("home-set")
    def pick_insertion(self, set_id: int, block: int,
                       klass: str) -> tuple[int, int] | None:
        """(set, way) to fill on migration; default delegates to
        :meth:`pick_victim` in the block's home set.  HAShCache overrides
        this to implement chained insertion."""
        way = self.pick_victim(set_id, klass)
        return (set_id, way) if way is not None else None

    # -- plumbing -------------------------------------------------------------

    @property
    def _all_ways(self) -> tuple[int, ...]:
        return tuple(range(self.ctrl.cfg.hybrid.assoc))

    def describe(self) -> dict:
        """Current configuration, for logging/telemetry."""
        return {"policy": self.name}
