"""Tests for epoch metric computation and the weighted-IPC objective."""

import pytest

from repro.config import default_system
from repro.engine.simulator import Simulation
from repro.experiments.designs import make_policy
from repro.telemetry import EpochRecorder
from repro.traces.mixes import build_mix


def test_epoch_metrics_are_deltas():
    cfg = default_system()
    mix = build_mix("C1", cpu_refs=1500, gpu_refs=10_000)
    rec = EpochRecorder()
    Simulation(cfg, make_policy("baseline"), mix, telemetry=rec).run()
    assert len(rec.epochs) >= 3
    for e in rec.epochs:
        assert e["ipc_cpu"] >= 0 and e["ipc_gpu"] >= 0
        assert e["weighted_ipc"] == pytest.approx(
            cfg.weight_cpu * e["ipc_cpu"] + cfg.weight_gpu * e["ipc_gpu"])


def test_gpu_instruction_scaling_in_objective():
    """The aggregate GPU agent carries the EU:core instruction ratio, so
    its IPC term is commensurate with the 12x-weighted CPU term
    (Section V: weights make the classes 'equally important')."""
    cfg = default_system()
    mix = build_mix("C1", cpu_refs=1500, gpu_refs=10_000)
    rec = EpochRecorder()
    Simulation(cfg, make_policy("baseline"), mix, telemetry=rec).run()
    mid = rec.epochs[len(rec.epochs) // 2]
    cpu_term = cfg.weight_cpu * mid["ipc_cpu"]
    gpu_term = cfg.weight_gpu * mid["ipc_gpu"]
    assert cpu_term > 0 and gpu_term > 0
    # Same order of magnitude: neither class is negligible in the objective.
    assert 0.05 < gpu_term / cpu_term < 20.0


def test_gpu_agent_ipc_reflects_eu_count():
    cfg = default_system()
    mix = build_mix("C1", cpu_refs=1500, gpu_refs=10_000)
    sim = Simulation(cfg, make_policy("baseline"), mix)
    gpu_agents = [a for a in sim.agents if a.klass == "gpu"]
    assert gpu_agents[0].instr_scale == pytest.approx(
        cfg.gpu.execution_units / cfg.cpu.cores)
    cpu_agents = [a for a in sim.agents if a.klass == "cpu"]
    assert cpu_agents[0].instr_scale == 1.0


def test_faucet_and_phase_ticks_fire():
    class Spy(type(make_policy("baseline"))):
        pass

    pol = make_policy("baseline")
    calls = {"faucet": 0, "phase": 0, "epoch": 0}
    pol.on_faucet = lambda now: calls.__setitem__("faucet",
                                                  calls["faucet"] + 1)
    pol.on_phase = lambda now: calls.__setitem__("phase", calls["phase"] + 1)
    orig_epoch = pol.on_epoch
    pol.on_epoch = lambda now, m: calls.__setitem__("epoch",
                                                    calls["epoch"] + 1)
    cfg = default_system()
    mix = build_mix("C1", cpu_refs=1500, gpu_refs=10_000)
    Simulation(cfg, pol, mix).run()
    assert calls["epoch"] >= 2
    assert calls["faucet"] >= calls["epoch"]  # faucet period is shorter
