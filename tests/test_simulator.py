"""End-to-end simulation tests (small traces for speed)."""

import pytest

from repro.config import default_system
from repro.core.hydrogen import HydrogenPolicy
from repro.engine.simulator import Simulation, simulate
from repro.experiments.designs import make_policy
from repro.telemetry import EpochRecorder
from repro.traces.mixes import build_mix, cpu_only, gpu_only

CFG = default_system()


def tiny_mix(name="C1", cpu=1500, gpu=8000, seed=3):
    return build_mix(name, cpu_refs=cpu, gpu_refs=gpu, seed=seed)


def test_simulation_completes_and_reports():
    res = simulate(CFG, make_policy("baseline"), tiny_mix())
    assert res.cycles_cpu and res.cycles_cpu > 0
    assert res.cycles_gpu and res.cycles_gpu > 0
    assert res.ipc_cpu > 0 and res.ipc_gpu > 0
    assert 0 < res.hit_rate("cpu") < 1
    assert 0 < res.hit_rate("gpu") <= 1
    assert res.elapsed >= max(res.cycles_cpu, res.cycles_gpu)


def test_determinism_same_seed():
    a = simulate(CFG, make_policy("baseline"), tiny_mix(seed=5))
    b = simulate(CFG, make_policy("baseline"), tiny_mix(seed=5))
    assert a.cycles_cpu == b.cycles_cpu
    assert a.cycles_gpu == b.cycles_gpu
    assert a.stats == b.stats


def test_different_seeds_differ():
    a = simulate(CFG, make_policy("baseline"), tiny_mix(seed=5))
    b = simulate(CFG, make_policy("baseline"), tiny_mix(seed=6))
    assert a.cycles_cpu != b.cycles_cpu


def test_solo_runs():
    mix = tiny_mix()
    rc = simulate(CFG, make_policy("baseline"), cpu_only(mix))
    assert rc.cycles_gpu is None and rc.cycles_cpu > 0
    rg = simulate(CFG, make_policy("baseline"), gpu_only(mix))
    assert rg.cycles_cpu is None and rg.cycles_gpu > 0


def test_corun_slower_than_solo():
    mix = tiny_mix()
    solo = simulate(CFG, make_policy("baseline"), cpu_only(mix))
    corun = simulate(CFG, make_policy("baseline"), mix)
    assert corun.cycles_cpu > solo.cycles_cpu * 0.95  # contention >= ~solo


def test_energy_accounting_positive():
    res = simulate(CFG, make_policy("baseline"), tiny_mix())
    e = res.energy
    assert e.fast_dynamic_nj > 0 and e.slow_dynamic_nj > 0
    assert e.static_nj > 0
    assert e.total_nj == pytest.approx(e.dynamic_nj + e.static_nj)


def test_epoch_recording():
    rec = EpochRecorder()
    Simulation(CFG, make_policy("baseline"), tiny_mix(),
               telemetry=rec).run()
    assert len(rec.epochs) > 2
    assert all("weighted_ipc" in e for e in rec.epochs)


def test_hydrogen_full_runs_and_tunes():
    res = simulate(CFG, HydrogenPolicy.full(), tiny_mix(cpu=3000, gpu=20000))
    assert res.policy_state["tuner_steps"] >= 1
    assert res.cycles_cpu > 0


def test_max_cycles_cap():
    res = simulate(CFG, make_policy("baseline"), tiny_mix(),
                   max_cycles=2_000.0)
    assert res.elapsed <= 2_000.0


def test_all_designs_run_end_to_end():
    from repro.experiments.designs import ALL_DESIGNS, design_config
    mix = tiny_mix(cpu=800, gpu=4000)
    for name in ALL_DESIGNS:
        pol = make_policy(name)
        cfg = design_config(name, CFG)
        res = simulate(cfg, pol, mix)
        assert res.cycles_cpu > 0, name
        assert res.cycles_gpu > 0, name


def test_flat_mode_end_to_end():
    from dataclasses import replace
    cfg = replace(CFG, hybrid=replace(CFG.hybrid, mode="flat"))
    res = simulate(cfg, HydrogenPolicy.dp_token(), tiny_mix(cpu=800, gpu=4000))
    assert res.cycles_cpu > 0
    # Flat-mode migrations always cost 2 tokens.
    migs = res.stats.get("gpu.migrations", 0)
    toks = res.stats.get("gpu.migration_tokens", 0)
    if migs:
        assert toks == pytest.approx(2 * migs)


def test_empty_mix_rejected():
    from repro.traces.mixes import WorkloadMix
    with pytest.raises(ValueError):
        Simulation(CFG, make_policy("baseline"), WorkloadMix("empty", (), ()))
