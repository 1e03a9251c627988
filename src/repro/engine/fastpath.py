"""Parts of the optimized engine (bit-exact with the reference).

The reference engine (:mod:`repro.engine.simulator`) walks a scalar
per-event loop: every access re-derives its block/set decomposition, its
way->channel/owner geometry (a SplitMix64 hash chain per query) and pays
a stack of delegating method calls.  The optimized engine keeps the
*schedule* of that loop — every observable event fires with the same
``(time, seq)`` heap key, so same-time tiebreaks, float accumulation
order and policy RNG draws are identical — while removing the
per-access recomputation.  Its per-access loop is the fused loop of
:mod:`repro.engine.batch` (native, or its Python fallback); this module
holds the state it runs over:

* **SoA trace decode** (:class:`FastAgent`, Python fallback only: the
  native loop derives both per access) — ``addr // block`` and
  ``block % num_sets`` are precomputed for the whole trace in one
  vectorized pass and memoized per (trace, geometry) on the trace
  itself (:meth:`repro.traces.base.Trace.columns`), as plain lists
  that hold one ``int``/``float`` per distinct value rather than one
  per reference.  Only cells that replay the same ``Trace`` object
  share a decode: a sweep builds a fresh mix per cell, so each sweep
  cell decodes its own traces.
* **Lazy channel releases** (:class:`FastChannel`) — the reference
  schedules a bus-release event for *every* transfer; most find an
  empty queue and are pure no-ops.  The optimized channel reserves the
  release's sequence number (keeping the global ``seq`` stream
  identical) but only materializes the event — at its reserved
  ``(time, seq)`` key, hence at exactly the reference's heap position —
  when a request actually queues behind it.  Whether the bus is busy is
  derived by comparing the event loop's current ``(now, cur_seq)``
  against the pending release's key (:class:`FastEventQueue`), which
  reproduces the reference's ``_busy`` flag bit-exactly even for events
  landing on the release timestamp itself.
* **Hash-consed geometry** (:class:`FastHybridController`) — per-set
  geometry rows (way->channel, ownership, eligibility) are cached and,
  for a policy whose map is a table-backed
  :class:`~repro.core.partition.VectorDecoupledMap` (the Hydrogen
  family), *hash-consed* on a ``(rotation, ownership-mask)`` key so the
  cache survives reconfigurations: a generation bump only rebuilds the
  key array (one vectorized pass), not the rows.

Serializing work — epoch/faucet/phase ticks, reconfigurations, token
accounting, policy adaptation — still runs through the scalar event
core, exactly as the reference does.

**Exactness guarantee:** a policy *decision* runs inline only as a
kernel of :data:`KERNELS` that the policy declares on the hook it
inherits (:meth:`~repro.hybrid.policies.base.PartitionPolicy.kernel`);
every other hook is delegated to the policy object with the reference
call pattern, so third-party policies run bit-exact too.  The only
contract relied upon is the documented purity of the geometry hooks
(``way_channel``/``way_owner``/``eligible_ways`` are pure in
``(set_id, way, klass, generation)``); policies with geometry that
changes without a generation bump must set ``geometry_static = False``.
"""

from __future__ import annotations

import numpy as np

from repro.config import MemConfig
from repro.core.partition import VectorDecoupledMap
from repro.engine.agents import TraceAgent
from repro.engine.events import EventQueue
from repro.engine.stats import Stats
from repro.hybrid.controller import HybridMemoryController
from repro.mem.channel import Channel
from repro.mem.device import MemoryDevice
from repro.traces.base import Trace

#: The closed list of inline kernels of the fused loop, per decision hook,
#: in the order of the hook's mode flag: a flag is the position of the
#: kernel its hook resolves to (``_mig_mode == 4`` runs "token-guard"), and
#: "delegate" calls the policy with the reference call pattern.  Policies
#: declare them with :func:`~repro.hybrid.policies.base.inlined`.
KERNELS = (
    ("alternate_set", ("no-alternate", "delegate", "hashcache-chain")),
    ("extra_probe_latency", ("no-probe", "delegate", "hashcache-probe")),
    ("allow_migration", ("always", "delegate", "profess-ladder",
                         "write-around", "token-guard")),
    ("channel_changed", ("channel-fixed", "delegate")),
    ("on_fast_hit", ("no-swap", "hydrogen-swap", "delegate")),
    ("pick_insertion", ("delegate", "home-set", "hashcache-chain")),
    ("pick_victim", ("delegate", "lru", "fewest-hits")),
    ("way_channel", ("delegate", "decoupled-map", "spread", "coupled")),
)


class FastEventQueue(EventQueue):
    """Event queue that exposes the sequence number of the firing event.

    ``cur_seq`` lets the lazy-release channels decide whether a pending
    (unmaterialized) release event at the current timestamp has
    logically fired yet: the release with key ``(t, s)`` precedes an
    event with key ``(t, s')`` iff ``s < s'``.  Outside any event
    (before the run starts) ``cur_seq`` is a sentinel larger than any
    real sequence number, i.e. "everything scheduled has fired".  The
    fused interpreter pops the heap itself and keeps ``now``/``cur_seq``
    current.
    """

    __slots__ = ("cur_seq",)

    def __init__(self) -> None:
        super().__init__()
        self.cur_seq = 1 << 63


class FastChannel(Channel):
    """A :class:`~repro.mem.channel.Channel` with *lazy* release bookkeeping.

    The bus frees at ``_t_free`` via a release event whose sequence
    number ``_s_rel`` is always consumed (so the global ordering stream
    matches the reference) but which is only pushed — at its reserved
    ``(time, seq)`` key — when a request queues behind it; ``_busy`` is
    never read.  The transfer path that drives this state is
    :class:`repro.engine.batch._BatchChannel` plus the fused interpreter.
    """

    __slots__ = ("_row_bytes", "_bpc", "_t_cas", "_t_rcd_cas", "_t_rp",
                 "_nbanks", "_t_free", "_s_rel", "_rel_pushed", "_hp")

    def __init__(self, index: int, cfg: MemConfig, eq: EventQueue,
                 stats: Stats, prefix: str) -> None:
        super().__init__(index, cfg, eq, stats, prefix)
        timing = cfg.timing
        self._row_bytes = timing.row_bytes
        self._bpc = timing.bytes_per_cycle
        self._t_cas = timing.t_cas
        # Same operands/order as the reference's t_rcd + t_cas.
        self._t_rcd_cas = timing.t_rcd + timing.t_cas
        self._t_rp = timing.t_rp
        self._nbanks = timing.banks
        # Lazy release bookkeeping: the bus frees at _t_free via the
        # (reserved, possibly never-pushed) release event with seq _s_rel.
        self._t_free = -1.0
        self._s_rel = -1
        self._rel_pushed = False
        self._hp = eq._heap

    @property
    def queue_depth(self) -> int:
        q = len(self._qc) + len(self._qg)
        if q:
            return q + 1
        eq = self.eq
        now = eq.now
        tf = self._t_free
        if now < tf or (now == tf and eq.cur_seq < self._s_rel):
            return 1
        return 0


class _FastDevice(MemoryDevice):
    """Memory tier built from :class:`FastChannel` servers."""

    _channel_cls = FastChannel


class FastAgent(TraceAgent):
    """Trace agent replaying shared structure-of-arrays trace columns.

    Block/set decomposition comes from the memoized
    :meth:`~repro.traces.base.Trace.columns` SoA (one vectorized decode
    per trace object x geometry).  The issue and response loop is the
    fused interpreter's, with blocking-model arithmetic identical to
    :class:`TraceAgent`; each access carries its issue time in its
    completion payload, so the agent keeps no per-access state.
    """

    __slots__ = ("ctrl", "_blocks", "_sets")

    def __init__(self, name: str, trace: Trace, mlp: int, eq: EventQueue,
                 ctrl: "FastHybridController", warmup_frac: float = 0.0,
                 instr_scale: float = 1.0) -> None:
        self.ctrl = ctrl
        super().__init__(name, trace, mlp, eq, ctrl.access, warmup_frac,
                         instr_scale=instr_scale)
        cols = trace.columns(ctrl._block, ctrl._nsets)
        self._blocks = cols.block_list
        self._sets = cols.set_list

    def _trace_lists(self, trace: Trace) -> tuple[list, list, list]:
        cols = trace.columns(self.ctrl._block, self.ctrl._nsets)
        return cols.addr_list, cols.write_list, cols.gap_list


class FastHybridController(HybridMemoryController):
    """Hybrid memory controller state for a table-driven hot path.

    Computes the specialization flags and geometry rows the fused
    interpreter (:func:`repro.engine.batch._advance_cell`) reads in
    place of the inherited per-access methods.  Requires a
    :class:`FastEventQueue` (the lazy-release channels read
    ``eq.cur_seq``).
    """

    _device_cls = _FastDevice

    def __init__(self, cfg, eq, stats, policy, telemetry=None) -> None:
        if not hasattr(eq, "cur_seq"):
            raise TypeError(
                "FastHybridController requires a FastEventQueue (the "
                "lazy-release channel model reads eq.cur_seq)")
        super().__init__(cfg, eq, stats, policy, telemetry=telemetry)
        # Specialization flags, one per hook row of KERNELS (see _mode).
        # HAShCache's ``chaining`` is frozen at attach time.  Without it
        # the chain kernel never finds an alternate set, and the probe
        # kernel charges the flat tag latency (mode 4).
        self._alt_mode = self._mode("alternate_set")
        if self._alt_mode == 2 and not policy.chaining:
            self._alt_mode = 0
        self._probe_mode = self._mode("extra_probe_latency")
        if self._probe_mode == 2:
            self._probe_mode = 2 if policy.chaining else 4
            self._hc_chain_lat = policy.chain_probe_latency
            self._hc_tag_lat = policy.extra_tag_latency
        # GPU misses under the token guard still consult the faucet.
        self._mig_mode = self._mode("allow_migration")
        if self._mig_mode == 2:
            self._prof_random = policy._rng.random
            self._prof_levels = policy.levels
            self._prof_ladder = policy.ladder
        self._chan_changed_call = self._mode("channel_changed")
        # Hydrogen's swap kernel inlines the RNG-free early-outs only.
        self._hit_hook = self._mode("on_fast_hit")
        # Home-set insertion (also the chain kernel without chaining)
        # takes the victim kernel's mode: a free way, else LRU (1) or
        # fewest hits (2, MDM).  Mode 3 takes HAShCache's primary slot,
        # else a free chained slot, else evicts the primary occupant,
        # reusing alt mode 2's chain set (the shared kernel ensures it).
        ins = self._mode("pick_insertion")
        if ins == 2 and policy.chaining:
            self._pick_mode = 3
        elif ins:
            self._pick_mode = self._mode("pick_victim")
        else:
            self._pick_mode = 0     # delegate to the policy
        self._static_geometry = bool(getattr(policy, "geometry_static", True))
        self._assoc = cfg.hybrid.assoc
        self._remap_bytes = cfg.hybrid.remap_entry_bytes
        self._store_ways = self.store._ways
        self._store_index = self.store._index
        self._cnt_cpu = self._cnt["cpu"]
        self._cnt_gpu = self._cnt["gpu"]
        # Per-set geometry rows (chans, owners, eligible_cpu,
        # eligible_gpu), built lazily, invalidated on generation bumps.
        # Rows are hash-consed whenever the geometry hooks are known to
        # be pure in a cheap per-set key (``_geo_mode``):
        #   1 = "decoupled-map" (Hydrogen's map tables): key packs
        #       (rotation, CPU-ownership mask); a reconfiguration only
        #       rebuilds the key array (one vectorized pass), never the rows.
        #   2 = "spread" (the base hooks): pure in ``set_id % channels``.
        #   3 = "coupled" (WayPart): the layout ignores ``set_id`` entirely.
        #   0 = per-set lazy caching (anything else, e.g. SetPartition's
        #       per-set hash), invalidated on generation bumps.
        self._geo: list = [None] * self._nsets
        self._geo_gen = policy.generation
        geo = self._mode("way_channel", "way_owner", "eligible_ways")
        self._geo_mode = geo if self._static_geometry else 0
        self._geo_memo: dict[int, tuple] = {}
        self._geo_keys: list[int] | None = None
        if self._geo_mode == 1:
            self._geo_refresh_keys()    # mode 0 unless a VectorDecoupledMap

    def _mode(self, *hooks: str) -> int:
        """Position, in the KERNELS row of ``hooks[0]``, of the kernel all
        ``hooks`` resolve to ("delegate" if they differ); a kernel the
        engine does not implement there is a ValueError."""
        kernels = next(ks for hook, ks in KERNELS if hook == hooks[0])
        names = {self.policy.kernel(hook) for hook in hooks}
        name = names.pop() if len(names) == 1 else "delegate"
        if name not in kernels:
            raise ValueError(
                f"{type(self.policy).__name__}.{hooks[0]} declares inline "
                f"kernel {name!r}; the fast engine implements {kernels}")
        return kernels.index(name)

    # -- geometry rows -------------------------------------------------------

    def _geo_row(self, set_id: int) -> tuple:
        pol = self.policy
        nf = self._nfast
        assoc = self._assoc
        chans = tuple(pol.way_channel(set_id, w) % nf for w in range(assoc))
        owners = tuple(pol.way_owner(set_id, w) for w in range(assoc))
        return (chans, owners, pol.eligible_ways(set_id, "cpu"),
                pol.eligible_ways(set_id, "gpu"))

    def _geo_refresh_keys(self) -> None:
        """Rebuild the per-set hash-cons keys from the current map tables.

        The key packs (rotation, CPU-ownership mask); every geometry
        hook the vector mode covers is a pure function of that pair
        (given the fixed assoc/channel counts), so rows may be shared
        across sets and across generations.
        """
        m = self.policy.map
        if not isinstance(m, VectorDecoupledMap) or m.num_sets != self._nsets:
            self._geo_mode = 0
            self._geo_keys = None
            return
        assoc = self._assoc
        weights = np.int64(1) << np.arange(assoc, dtype=np.int64)
        bits = m._cpu_mask.astype(np.int64) @ weights
        self._geo_keys = ((m._chan[:, 0] << np.int64(assoc)) + bits).tolist()

    def _geo_fill(self, set_id: int) -> tuple:
        mode = self._geo_mode
        if mode:
            if mode == 1:
                key = self._geo_keys[set_id]
            elif mode == 2:
                key = set_id % self._nfast
            else:
                key = 0
            memo = self._geo_memo
            row = memo.get(key)
            if row is None:
                row = self._geo_row(set_id)
                memo[key] = row
            self._geo[set_id] = row
            return row
        row = self._geo_row(set_id)
        if self._static_geometry:
            self._geo[set_id] = row
        return row
