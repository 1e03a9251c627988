"""Miscellaneous edge cases across modules."""

from dataclasses import replace

import pytest

from repro.config import MB, default_system, hbm2e, ddr4
from repro.core.hydrogen import HydrogenPolicy
from repro.engine.events import EventQueue
from repro.engine.simulator import simulate
from repro.engine.stats import Stats
from repro.hybrid.controller import HybridMemoryController
from repro.telemetry import EpochRecorder
from repro.traces.mixes import build_mix


def test_two_channel_fast_tier_hydrogen():
    cfg = replace(default_system(), fast=hbm2e(channels=2, capacity=4 * MB))
    pol = HydrogenPolicy.full()
    HybridMemoryController(cfg, EventQueue(), Stats(), pol)
    assert pol.map.channels == 2
    assert pol.map.bw <= 1  # must leave the GPU a channel
    assert all(v["bw"] <= 1 for v in [pol.tuner.current])


def test_eight_channel_fast_tier():
    cfg = replace(default_system(), fast=hbm2e(channels=8, capacity=4 * MB))
    mix = build_mix("C1", cpu_refs=600, gpu_refs=3000)
    res = simulate(cfg, HydrogenPolicy.dp(), mix)
    assert res.cycles_cpu > 0


def test_two_slow_channels():
    cfg = replace(default_system(), slow=ddr4(channels=2))
    mix = build_mix("C2", cpu_refs=600, gpu_refs=3000)
    res = simulate(cfg, HydrogenPolicy.dp_token(), mix)
    assert res.cycles_gpu > 0


def test_simresult_hit_rate_empty_class():
    from repro.traces.mixes import cpu_only
    mix = cpu_only(build_mix("C1", cpu_refs=500, gpu_refs=500))
    res = simulate(default_system(), HydrogenPolicy.dp(), mix)
    assert res.hit_rate("gpu") == 0.0  # no GPU traffic at all


def test_stats_repr_is_stable():
    s = Stats()
    s.add("b", 2)
    s.add("a", 1)
    r = repr(s)
    assert r.index("a=1") < r.index("b=2")  # sorted


def test_agent_names_unique_and_labeled():
    from repro.engine.simulator import Simulation
    from repro.experiments.designs import make_policy
    mix = build_mix("C4", cpu_refs=500, gpu_refs=1000)
    sim = Simulation(default_system(), make_policy("baseline"), mix)
    names = [a.name for a in sim.agents]
    assert len(set(names)) == len(names)
    assert sum(n.startswith("gpu") for n in names) == 1


def test_weight_overrides_affect_objective():
    cfg = replace(default_system(), weight_cpu=1.0, weight_gpu=1.0)
    mix = build_mix("C1", cpu_refs=800, gpu_refs=4000)
    rec = EpochRecorder()
    simulate(cfg, HydrogenPolicy.full(), mix, telemetry=rec)
    e = rec.epochs[-1]
    assert e["weighted_ipc"] == pytest.approx(e["ipc_cpu"] + e["ipc_gpu"])


def test_mix_footprint_property():
    mix = build_mix("C1", cpu_refs=100, gpu_refs=100)
    assert mix.footprint == sum(t.footprint for t in mix.traces)
