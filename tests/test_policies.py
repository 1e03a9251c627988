"""Tests for the baseline partitioning policies (Section V)."""

import pytest

from repro.config import default_system
from repro.engine.events import EventQueue
from repro.engine.stats import Stats
from repro.hybrid.controller import HybridMemoryController
from repro.hybrid.policies.hashcache import HAShCachePolicy
from repro.hybrid.policies.nopart import NoPartitionPolicy
from repro.hybrid.policies.profess import ProfessPolicy
from repro.hybrid.policies.waypart import WayPartPolicy


def attach(policy, cfg=None):
    cfg = cfg or default_system()
    eq = EventQueue()
    ctrl = HybridMemoryController(cfg, eq, Stats(), policy)
    return cfg, eq, ctrl


# -- baseline ----------------------------------------------------------------

def test_baseline_everything_shared():
    pol = NoPartitionPolicy()
    cfg, eq, ctrl = attach(pol)
    assert pol.way_owner(0, 0) == "shared"
    assert pol.eligible_ways(5, "cpu") == pol.eligible_ways(5, "gpu")
    assert pol.allow_migration("gpu", 1, 2, False)


def test_baseline_spreads_channels():
    pol = NoPartitionPolicy()
    attach(pol)
    chans = {pol.way_channel(s, w) for s in range(8) for w in range(4)}
    assert chans == {0, 1, 2, 3}


# -- WayPart -------------------------------------------------------------------

def test_waypart_75_25_split():
    pol = WayPartPolicy(cpu_frac=0.75)
    attach(pol)
    assert pol.eligible_ways(0, "cpu") == (0, 1, 2)
    assert pol.eligible_ways(0, "gpu") == (3,)
    assert pol.way_owner(0, 0) == "cpu"
    assert pol.way_owner(0, 3) == "gpu"


def test_waypart_coupling():
    """The strawman couples capacity and bandwidth: CPU ways sit on CPU
    channels only."""
    pol = WayPartPolicy(cpu_frac=0.75)
    attach(pol)
    cpu_chans = {pol.way_channel(s, w) for s in range(64) for w in (0, 1, 2)}
    gpu_chans = {pol.way_channel(s, 3) for s in range(64)}
    assert cpu_chans == {0, 1, 2}
    assert gpu_chans == {3}


def test_waypart_validates_frac():
    with pytest.raises(ValueError):
        WayPartPolicy(cpu_frac=1.5)


# -- HAShCache -------------------------------------------------------------------

def test_hashcache_geometry_is_direct_mapped():
    cfg = HAShCachePolicy.geometry(default_system())
    assert cfg.hybrid.assoc == 1
    assert cfg.fast.capacity == default_system().fast.capacity


def test_hashcache_chaining_auto():
    pol = HAShCachePolicy()
    attach(pol, HAShCachePolicy.geometry(default_system()))
    assert pol.chaining
    pol2 = HAShCachePolicy()
    attach(pol2, default_system())  # assoc=4
    assert not pol2.chaining


def test_hashcache_chain_set_differs_and_is_stable():
    pol = HAShCachePolicy()
    cfg, eq, ctrl = attach(pol, HAShCachePolicy.geometry(default_system()))
    alt = pol.alternate_set(10, block=12345)
    assert alt is not None and alt != 10
    assert alt == pol.alternate_set(10, block=12345)


def test_hashcache_cpu_priority_fast_tier_only():
    pol = HAShCachePolicy()
    cfg, eq, ctrl = attach(pol)
    assert all(ch.priority_class == "cpu" for ch in ctrl.fast.channels)
    assert all(ch.priority_class is None for ch in ctrl.slow.channels)


def test_hashcache_write_bypass():
    pol = HAShCachePolicy()
    attach(pol)
    assert pol.allow_migration("gpu", 1, 1, is_write=False)
    assert not pol.allow_migration("gpu", 1, 1, is_write=True)


def test_hashcache_extra_latency_modes():
    pol = HAShCachePolicy()
    cfg, eq, ctrl = attach(pol, HAShCachePolicy.geometry(default_system()))
    assert pol.extra_probe_latency("cpu", chained=True) > 0
    assert pol.extra_probe_latency("cpu", chained=False) == 0
    pol2 = HAShCachePolicy()
    attach(pol2, default_system())  # chaining disabled at A4
    assert pol2.extra_probe_latency("cpu", chained=False) > 0


def test_hashcache_chained_insertion_prefers_free_slot():
    pol = HAShCachePolicy()
    cfg, eq, ctrl = attach(pol, HAShCachePolicy.geometry(default_system()))
    block = 12345
    home = block % cfg.num_sets
    ctrl.store.insert(home, 0, 999_999, "cpu", False, 0.0, 0)
    iset, iway = pol.pick_insertion(home, block, "gpu")
    assert iset == pol._chain_set(block)  # spilled to the chain slot


# -- ProFess -----------------------------------------------------------------------

def test_profess_probability_levels():
    pol = ProfessPolicy(start_level=5)
    attach(pol)
    assert pol.p_of("cpu") == 1.0
    pol.levels["cpu"] = 0
    assert pol.p_of("cpu") == pol.ladder[0]


def test_profess_migration_is_probabilistic():
    pol = ProfessPolicy(seed=1, start_level=1)  # p = 0.5
    attach(pol)
    grants = sum(pol.allow_migration("cpu", b, 1, False) for b in range(2000))
    assert 0.4 < grants / 2000 < 0.6


def test_profess_mdm_victim_prefers_unreused():
    pol = ProfessPolicy()
    cfg, eq, ctrl = attach(pol)
    st = ctrl.store
    for w in range(4):
        st.insert(0, w, 100 + w, "cpu", False, float(w), 0)
    st.touch(0, 0, 10.0, False)  # way 0 re-used
    st.touch(0, 1, 11.0, False)
    assert pol.pick_victim(0, "cpu") == 2  # fewest hits, oldest


def test_profess_adapts_under_pressure():
    pol = ProfessPolicy(start_level=5)
    cfg, eq, ctrl = attach(pol)
    # Fake slow-tier saturation: high busy cycles, gpu migrating wastefully.
    for ch in ctrl.slow.channels:
        ch.busy_cycles = 1e6
    ctrl.stats.add("cpu.fast_hits", 1000)
    ctrl.stats.add("cpu.migrations", 10)
    ctrl.stats.add("gpu.fast_hits", 10)
    ctrl.stats.add("gpu.migrations", 1000)
    pol.on_epoch(1e6, {})
    assert pol.levels["gpu"] < 5      # wasteful class throttled
    assert pol.levels["cpu"] == 5     # efficient class kept at max


def test_profess_relaxes_without_pressure():
    pol = ProfessPolicy(start_level=2)
    cfg, eq, ctrl = attach(pol)
    pol.on_epoch(1e6, {})  # slow util ~0
    assert pol.levels["cpu"] == 3
    assert pol.levels["gpu"] == 3
