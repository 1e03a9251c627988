"""Property-based invariants of the hybrid memory controller.

Drives the controller with random access sequences (hypothesis) and checks
the structural invariants that must hold for *any* policy and sequence:
tag-store consistency, response delivery, conservation of counters, and
class confinement of insertions.
"""

from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MB, default_system
from repro.config_io import apply_overrides, config_to_dict
from repro.core.hydrogen import HydrogenPolicy
from repro.engine.events import EventQueue
from repro.engine.stats import Stats
from repro.experiments.designs import ALL_DESIGNS
from repro.experiments.runner import run_design
from repro.hybrid.controller import HybridMemoryController
from repro.hybrid.policies.hashcache import HAShCachePolicy
from repro.hybrid.policies.nopart import NoPartitionPolicy
from repro.hybrid.policies.profess import ProfessPolicy
from repro.hybrid.policies.waypart import WayPartPolicy
from repro.hybrid.setassoc import KLASS
from repro.traces.mixes import build_mix

POLICIES = {
    "baseline": NoPartitionPolicy,
    "waypart": WayPartPolicy,
    "profess": ProfessPolicy,
    "hydrogen": HydrogenPolicy.dp_token,
    "hashcache": HAShCachePolicy,
}

accesses_strategy = st.lists(
    st.tuples(
        st.sampled_from(["cpu", "gpu"]),
        st.integers(0, (8 * MB) // 64 - 1),  # cacheline index
        st.booleans(),
    ),
    min_size=1, max_size=300,
)


@settings(max_examples=25, deadline=None)
@given(accs=accesses_strategy, pol_name=st.sampled_from(sorted(POLICIES)))
def test_controller_invariants(accs, pol_name):
    cfg = default_system()
    if pol_name == "hashcache":
        cfg = HAShCachePolicy.geometry(cfg)
    eq = EventQueue()
    stats = Stats()
    ctrl = HybridMemoryController(cfg, eq, stats, POLICIES[pol_name]())

    responses = []
    for klass, line, is_write in accs:
        ctrl.access(klass, line * 64, is_write, lambda: responses.append(1))
    eq.run()
    ctrl.flush_stats()

    # 1. Every access is answered exactly once.
    assert len(responses) == len(accs)
    # 2. The tag store's index and way arrays agree.
    ctrl.store.check_consistency()
    # 3. Counter conservation: accesses = hits + misses per class.
    for klass in ("cpu", "gpu"):
        acc = stats.get(f"{klass}.accesses")
        hit = stats.get(f"{klass}.fast_hits")
        miss = stats.get(f"{klass}.fast_misses")
        assert acc == hit + miss
        # 4. Misses either migrate or bypass; queue-gate bypasses are a
        # subset of bypasses.
        assert miss == (stats.get(f"{klass}.migrations")
                        + stats.get(f"{klass}.bypasses"))
        assert (stats.get(f"{klass}.queue_bypasses")
                <= stats.get(f"{klass}.bypasses"))
    # 5. Occupancy never exceeds capacity.
    assert ctrl.store.occupancy() <= cfg.num_sets * cfg.hybrid.assoc


@settings(max_examples=15, deadline=None)
@given(accs=accesses_strategy)
def test_partitioned_insertions_respect_ownership(accs):
    """Under Hydrogen (no reconfig), blocks only sit in ways owned by
    their class."""
    cfg = default_system()
    eq = EventQueue()
    pol = HydrogenPolicy.dp()
    ctrl = HybridMemoryController(cfg, eq, Stats(), pol)
    for klass, line, is_write in accs:
        ctrl.access(klass, line * 64, is_write, lambda: None)
    eq.run()
    for s in range(cfg.num_sets):
        for w, e in ctrl.store.valid_ways(s):
            assert pol.way_owner(s, w) == e[KLASS]


@settings(max_examples=15, deadline=None)
@given(accs=accesses_strategy, seed=st.integers(0, 100))
def test_determinism_property(accs, seed):
    """Identical access sequences produce identical final state."""
    def run():
        cfg = default_system()
        eq = EventQueue()
        stats = Stats()
        ctrl = HybridMemoryController(cfg, eq, stats, ProfessPolicy(seed=seed))
        for klass, line, is_write in accs:
            ctrl.access(klass, line * 64, is_write, lambda: None)
        eq.run()
        ctrl.flush_stats()
        return stats.as_dict(), eq.now

    assert run() == run()


@settings(max_examples=15, deadline=None)
@given(lines=st.lists(st.integers(0, 1023), min_size=1, max_size=200))
def test_repeated_touch_is_always_hit_after_migration(lines):
    """Once a block migrates, re-touching it without interference hits."""
    cfg = default_system()
    eq = EventQueue()
    ctrl = HybridMemoryController(cfg, eq, Stats(), NoPartitionPolicy())
    for line in lines:
        ctrl.access("cpu", line * 64, False, lambda: None)
    eq.run()
    ctrl.flush_stats()
    hits_before = ctrl.live_count("cpu", "fast_hits")
    for line in set(lines):
        ctrl.access("cpu", line * 64, False, lambda: None)
    eq.run()
    misses_after = (ctrl.live_count("cpu", "fast_misses"))
    # 1024 lines = 256 blocks spread over 4096+ sets: no set conflicts, so
    # the re-touch pass produces zero new misses.
    assert misses_after == ctrl.live_count("cpu", "accesses") - \
        ctrl.live_count("cpu", "fast_hits")
    assert ctrl.live_count("cpu", "fast_hits") > hits_before


# -- random geometries, whole runs, both engines ----------------------------

#: Tiny mix shared by every draw: geometry is what varies.
GEOMETRY_MIX = build_mix("C1", cpu_refs=600, gpu_refs=3000, seed=3)


def _geometry(fast_ch: int, slow_ch: int, assoc: int, block: int):
    cfg = default_system().with_geometry(assoc=assoc, block=block)
    return replace(cfg, fast=replace(cfg.fast, channels=fast_ch),
                   slow=replace(cfg.slow, channels=slow_ch))


@settings(max_examples=20, deadline=None)
@given(fast_ch=st.sampled_from([1, 2, 3, 4, 8]),
       slow_ch=st.sampled_from([1, 2, 4]),
       assoc=st.sampled_from([1, 2, 4, 8, 16]),
       block=st.sampled_from([64, 128, 256, 512]),
       design=st.sampled_from(ALL_DESIGNS))
# Pinned: fast tiers of two capacity units or fewer, where Hydrogen's
# start must still land inside its tuner's QoS-floor domain.
@example(fast_ch=2, slow_ch=4, assoc=2, block=256, design="hydrogen")
@example(fast_ch=1, slow_ch=2, assoc=1, block=64, design="hydrogen")
@example(fast_ch=2, slow_ch=1, assoc=1, block=512, design="hydrogen-dp")
def test_random_geometry_runs_conserve_and_agree(fast_ch, slow_ch, assoc,
                                                 block, design):
    """Whole runs on a drawn geometry, stall watchdog armed (a stall
    raises ``SimulationStalled``): the fast engine equals the reference,
    every request is accounted for, and no token bank goes negative."""
    cfg = _geometry(fast_ch, slow_ch, assoc, block)
    ref = run_design(design, GEOMETRY_MIX, cfg, native_geometry=False,
                     engine="reference")
    assert run_design(design, GEOMETRY_MIX, cfg, native_geometry=False,
                      engine="fast") == ref
    for klass in ("cpu", "gpu"):
        n = {key: ref.stats.get(f"{klass}.{key}", 0.0)
             for key in ("accesses", "fast_hits", "fast_misses",
                         "migrations", "bypasses", "remap_fills")}
        # The run stops once every agent is measured: an access still
        # waiting on its remap-table fill has no hit or miss yet.
        unresolved = n["accesses"] - n["fast_hits"] - n["fast_misses"]
        assert 0 <= unresolved <= n["remap_fills"]
        assert n["fast_misses"] == n["migrations"] + n["bypasses"]
        # Hydrogen's QoS floor: neither class is starved of the fast tier.
        assert n["fast_hits"] > 0 or not design.startswith("hydrogen")
    assert ref.policy_state.get("tokens_banked", 0.0) >= 0.0


# -- every numeric override: refused up front, or run to the end ------------

def flatten_config(d: dict, prefix: str = ""):
    """``(dotted key, value)`` of every leaf of a config dict."""
    for key, value in d.items():
        if isinstance(value, dict):
            yield from flatten_config(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


#: Every numeric field ``config_io.apply_overrides`` accepts (``--set``).
NUMERIC_FIELDS = tuple(sorted(
    key for key, value in flatten_config(config_to_dict(default_system()))
    if isinstance(value, (int, float))))

#: Values that broke or hung an engine before ``SystemConfig`` refused
#: them, or sit on a boundary: zero, negatives, sub-cycle, non-finite.
EDGE_VALUES = (0, -1, -0.0, 1, 2, 3, 0.5, 1e-12, 1e-9, 2.5, 64, 4096,
               1e12, float("nan"), float("inf"), float("-inf"))

#: Fields that size the engines' state: drawn from small values only, so
#: every draw builds a store, channel set and bank table of modest size.
SIZE_VALUES = {
    "hybrid.block": (0, -1, 1.5, 64, 128, 512, 4096),
    "hybrid.assoc": (0, -2, 1, 2, 3, 8, 16, 2.5),
    "fast.capacity": (0, -1024, 1000, 1 << 20, 4 << 20, 1.5e6),
    "fast.channels": (0, -1, 1, 2, 3, 7, 16, 2.5),
    "slow.channels": (0, -1, 1, 2, 3, 7, 16, 2.5),
    "fast.timing.banks": (0, -1, 1, 3, 64, 2.5),
    "slow.timing.banks": (0, -1, 1, 3, 64, 2.5),
    "fast.timing.row_bytes": (0, -1, 1, 7, 64, 65536, 100.5),
    "slow.timing.row_bytes": (0, -1, 1, 7, 64, 65536, 100.5),
}

#: Tiny mix shared by every override draw.
OVERRIDE_MIX = build_mix("C1", cpu_refs=300, gpu_refs=1200, seed=5)


@st.composite
def overrides(draw):
    key = draw(st.sampled_from(NUMERIC_FIELDS))
    if key in SIZE_VALUES:
        return key, draw(st.sampled_from(SIZE_VALUES[key]))
    return key, draw(st.one_of(
        st.sampled_from(EDGE_VALUES), st.integers(-10, 10**6),
        st.floats(-1e4, 1e9, allow_nan=False)))


@settings(max_examples=60, deadline=None)
@given(override=overrides(),
       design=st.sampled_from(["hydrogen", "profess", "hashcache",
                               "baseline"]))
@example(override=("cpu.cores", 0), design="hydrogen")
@example(override=("gpu.execution_units", 0), design="hydrogen")
@example(override=("epochs.faucet_cycles", 1e-12), design="hydrogen")
@example(override=("epochs.epoch_cycles", 1), design="hydrogen")
@example(override=("weight_cpu", -1), design="hydrogen")
@example(override=("fast.timing.bytes_per_cycle", 1e-9), design="profess")
def test_every_numeric_override_is_refused_or_runs_on_both_engines(
        override, design):
    """A drawn ``--set KEY=V`` either raises ``ValueError`` from
    ``SystemConfig`` or runs a tiny mix to the end (under a cycle
    budget, watchdog off) with the reference ≡ the fast engine."""
    key, value = override
    try:
        cfg = apply_overrides(default_system(), {key: value})
    except ValueError:
        return
    kw = dict(max_cycles=5_000.0, stall_epochs=None)
    ref = run_design(design, OVERRIDE_MIX, cfg, engine="reference", **kw)
    assert run_design(design, OVERRIDE_MIX, cfg, engine="fast", **kw) == ref
