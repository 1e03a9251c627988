"""KV-cache placement baselines ported from the Data_Placement exemplar
(fangyunh/Data_Placement_Optimization, see SNIPPETS.md).

That codebase decides, per decode step, which tokens' KV entries live in
HBM versus external memory via pluggable ``BaseDataMigration``
strategies.  Here the same three ideas are recast as
:class:`~repro.hybrid.policies.base.PartitionPolicy` subclasses, so they
run under the identical controller/faucet mechanics as ``HydrogenPolicy``
and the paper's baselines and are comparable via ``api.compare``:

* :class:`WindowPinPolicy` — window-based hot-set pinning: only blocks
  re-referenced within a bounded recency window earn a fast-tier fill
  (the attention window re-reads every step; single-pass prefill
  streams never qualify);
* :class:`LayerSplitPolicy` — layer-aware static split: a fixed way
  partition between CPU and GPU, with GPU fills further gated to the
  early (pinned) transformer layers — the exemplar's static
  layer-placement table;
* :class:`TokenLRUPolicy` — LRU-style token demotion: the exemplar's
  ``PriorMigration`` (evict the *earliest* tokens once HBM utilization
  crosses a threshold) becomes "under fast-tier occupancy pressure,
  stop filling tokens older than the live tail; LRU victims drain the
  cold prefix".

All three decode the token/layer address contract documented in
:mod:`repro.traces.llm`: one token's per-layer KV entry is one
migration block, layers are contiguous ``layer_blocks``-block slabs,
and the KV region base is request-stride aligned.  The geometry
defaults match the default ``LLMSpec``; pass explicit values for
custom specs.  Non-KV (plain Table II) mixes still run correctly —
the layer/token arithmetic just degrades to an address hash.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.hybrid.policies.base import PartitionPolicy

#: Default geometry, matching ``repro.traces.llm.LLMSpec()``:
#: 1024-token layers of 256 B entries, 8 layers per request.
LAYER_BLOCKS_DEFAULT = 1024
N_LAYERS_DEFAULT = 8


class WindowPinPolicy(PartitionPolicy):
    """Pin the re-referenced window; stream past single-use tokens.

    A bounded insertion-ordered recency table tracks recently missed
    GPU blocks; a GPU miss earns a migration only when the block missed
    within the window before.  Attention-window and sink tokens re-miss
    every decode step until cached, so the hot set is pinned; the
    prefill burst and cold history probes are write/read-around.  CPU
    fills are unrestricted.
    """

    name = "kv-windowpin"

    def __init__(self, window_blocks: int = 2048) -> None:
        super().__init__()
        if window_blocks < 1:
            raise ValueError("window_blocks must be positive")
        self.window_blocks = window_blocks
        self._seen: OrderedDict[int, None] = OrderedDict()

    def allow_migration(self, klass: str, block: int, cost: int,
                        is_write: bool) -> bool:
        if klass == "cpu":
            return True
        if block in self._seen:
            self._seen.move_to_end(block)
            return True
        self._seen[block] = None
        if len(self._seen) > self.window_blocks:
            self._seen.popitem(last=False)
        return False

    def describe(self) -> dict:
        return {"policy": self.name, "window_blocks": self.window_blocks,
                "window_live": len(self._seen)}


class LayerSplitPolicy(PartitionPolicy):
    """Static way split plus layer-aware GPU fill gating.

    The ways are partitioned CPU/GPU like WayPart (without its coupled
    way->channel mapping, so bandwidth stays shared); within its ways
    the GPU may only fill blocks belonging to the first
    ``pinned_layers`` transformer layers.  Early layers run first in
    every forward pass, so their windows are the steadiest re-use —
    the exemplar's static layer-placement split.
    """

    name = "kv-layersplit"

    def __init__(self, cpu_frac: float = 0.5,
                 n_layers: int = N_LAYERS_DEFAULT,
                 layer_blocks: int = LAYER_BLOCKS_DEFAULT,
                 pinned_layers: int | None = None) -> None:
        super().__init__()
        if not 0.0 <= cpu_frac <= 1.0:
            raise ValueError("cpu_frac must be in [0, 1]")
        self.cpu_frac = cpu_frac
        self.n_layers = n_layers
        self.layer_blocks = layer_blocks
        self.pinned_layers = (pinned_layers if pinned_layers is not None
                              else max(1, n_layers // 2))
        self._cpu_ways: tuple[int, ...] = ()
        self._gpu_ways: tuple[int, ...] = ()

    def attach(self, ctrl) -> None:
        super().attach(ctrl)
        assoc = ctrl.cfg.hybrid.assoc
        n_cpu = max(0, min(assoc, round(assoc * self.cpu_frac)))
        self._cpu_ways = tuple(range(n_cpu))
        self._gpu_ways = tuple(range(n_cpu, assoc))

    def layer_of(self, block: int) -> int:
        """Transformer layer a KV block belongs to (address contract)."""
        return block % (self.n_layers * self.layer_blocks) \
            // self.layer_blocks

    def way_owner(self, set_id: int, way: int) -> str:
        return "cpu" if way in self._cpu_ways else "gpu"

    def eligible_ways(self, set_id: int, klass: str) -> tuple[int, ...]:
        return self._cpu_ways if klass == "cpu" else self._gpu_ways

    def allow_migration(self, klass: str, block: int, cost: int,
                        is_write: bool) -> bool:
        if klass == "cpu":
            return True
        return self.layer_of(block) < self.pinned_layers

    def describe(self) -> dict:
        return {"policy": self.name, "cpu_ways": len(self._cpu_ways),
                "gpu_ways": len(self._gpu_ways),
                "pinned_layers": self.pinned_layers}


class TokenLRUPolicy(PartitionPolicy):
    """LRU token demotion under fast-tier occupancy pressure.

    Tracks the live sequence tail (the largest token index the GPU has
    referenced) and samples fast-tier occupancy each epoch.  While
    occupancy exceeds ``pressure_threshold``, GPU fills are denied for
    tokens more than ``keep_recent`` positions behind the tail — the
    earliest tokens stop being cached and plain LRU replacement drains
    the ones already resident, which is exactly the exemplar's
    ``PriorMigration`` (migrate the earliest tokens out of HBM once its
    utilization crosses a threshold) expressed through this
    controller's fill/evict mechanics.
    """

    name = "kv-tokenlru"

    def __init__(self, keep_recent: int = 128,
                 pressure_threshold: float = 0.5,
                 layer_blocks: int = LAYER_BLOCKS_DEFAULT) -> None:
        super().__init__()
        if keep_recent < 1:
            raise ValueError("keep_recent must be positive")
        self.keep_recent = keep_recent
        self.pressure_threshold = pressure_threshold
        self.layer_blocks = layer_blocks
        self._tail = 0
        self._pressured = False

    def token_of(self, block: int) -> int:
        """Token index within its layer slab (address contract)."""
        return block % self.layer_blocks

    def on_epoch(self, now: float, metrics: dict) -> None:
        occ = sum(  # noqa: FLT01 - integer way-counts, order-independent
            self.ctrl.occupancy_by_class().values())
        cap = self.ctrl.cfg.num_sets * self.ctrl.cfg.hybrid.assoc
        self._pressured = occ / cap > self.pressure_threshold

    def allow_migration(self, klass: str, block: int, cost: int,
                        is_write: bool) -> bool:
        if klass == "cpu":
            return True
        token = self.token_of(block)
        if token > self._tail:
            self._tail = token
        if not self._pressured:
            return True
        return token >= self._tail - self.keep_recent

    def describe(self) -> dict:
        return {"policy": self.name, "keep_recent": self.keep_recent,
                "tail": self._tail, "pressured": self._pressured}
