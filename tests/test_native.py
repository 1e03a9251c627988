"""The native fused loop: used where it builds, cached, freed, and the
Python loop as its fallback.

Where ``cffi`` and ``setuptools`` import and the interpreter's C compiler
is on ``PATH``, a fast cell must run the C loop: a build that breaks
fails here instead of falling back silently.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
import time
import warnings
from pathlib import Path

import pytest

import repro.engine.batch as batch
from repro.config import default_system
from repro.config_io import apply_overrides
from repro.core.hydrogen import HydrogenPolicy
from repro.engine.batch import FastSimulation
from repro.engine.simulator import Simulation, SimulationStalled
from repro.experiments.designs import design_config, make_policy
from repro.experiments.resilience import JobTimeout, time_limit
from repro.hybrid.policies.hashcache import HAShCachePolicy
from repro.hybrid.policies.nopart import NoPartitionPolicy
from repro.traces.mixes import build_mix
from tests.test_fastpath_equiv import DESIGNS, TINY, run_engines

SRC = Path(__file__).resolve().parents[1] / "src"


def _toolchain() -> bool:
    """cffi and setuptools import and the configured compiler is found."""
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    return (importlib.util.find_spec("cffi") is not None
            and importlib.util.find_spec("setuptools") is not None
            and shutil.which(cc) is not None)


needs_native = pytest.mark.skipif(not _toolchain(),
                                  reason="no C toolchain for cffi here")


def _cell(design="hydrogen", mix_name="C1", cfg=None, **kw):
    mix = build_mix(mix_name, seed=7, **TINY)
    cfg = cfg or design_config(design, default_system())
    return FastSimulation(cfg, make_policy(design), mix, **kw)


def _live() -> int:
    return batch._native().live[0]


@needs_native
def test_fast_cells_run_the_native_loop_where_it_builds():
    assert batch._native() is not None
    sim = _cell()
    assert sim._native is not None
    assert all(isinstance(a, batch._NativeAgent) for a in sim.agents)
    sim.run()
    # the store keeps its columns (copied out of the freed cell)
    assert isinstance(sim.ctrl.store, batch._StoreView)
    sim.ctrl.store.check_consistency()


def test_forced_fallback_warns_once_and_stays_bit_exact(monkeypatch):
    def no_build():
        raise RuntimeError("no compiler")

    monkeypatch.setattr(batch, "_load_native", no_build)
    batch._native.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for design in DESIGNS:
                ref, fast = run_engines(design)
                assert fast == ref, design
            assert _cell()._native is None
        assert [w.category for w in caught] == [RuntimeWarning]
        assert "no compiler" in str(caught[0].message)
    finally:
        batch._native.cache_clear()


#: Loads the native loop in a child process with the build cache pinned
#: to argv[1] (a writable package cache, so the temp dir is never used);
#: with argv[2] == "cached" a build attempt fails the child.
CHILD = """
import sys, pathlib
import repro.engine.batch as b
cache = pathlib.Path(sys.argv[1])
b._cache_dirs = lambda: (cache, cache / "unused")
if sys.argv[2] == "cached":
    def no_build(*args):
        raise AssertionError("built although the cache holds the module")
    b._build = no_build
native = b._native()
assert native is not None
print(native.lib.fl_new is not None)
"""


def _child(cache: Path, mode: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-W", "error", "-c", CHILD, str(cache), mode],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def raced_cache(tmp_path_factory):
    """Two processes that build into one empty cache dir at once."""
    if not _toolchain():
        pytest.skip("no C toolchain for cffi here")
    cache = tmp_path_factory.mktemp("native-cache")
    procs = [_child(cache, "build"), _child(cache, "build")]
    outs = [p.communicate(timeout=300) for p in procs]
    return cache, [(p.returncode, out, err)
                   for p, (out, err) in zip(procs, outs)]


def test_racing_builders_both_load_a_complete_module(raced_cache):
    cache, results = raced_cache
    for code, out, err in results:
        assert code == 0 and out.strip() == "True", err
    _, filename = batch._artifact()
    assert [p.name for p in cache.iterdir()] == [filename]


def test_second_process_loads_the_cached_build(raced_cache):
    cache, _ = raced_cache
    proc = _child(cache, "cached")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and out.strip() == "True", err


@needs_native
def test_unwritable_cache_dir_falls_back_to_the_temp_dir(tmp_path,
                                                        monkeypatch):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    user = tmp_path / "user"
    monkeypatch.setattr(batch, "_cache_dirs",
                        lambda: (blocker / "__pycache__", user))
    path = batch._artifact_path()
    assert path.parent == user and path.is_file()
    assert stat.S_IMODE(user.stat().st_mode) == 0o700


def _plant(d: Path) -> Path:
    """A module file at the artifact's name in ``d``."""
    d.mkdir(exist_ok=True)
    planted = d / batch._artifact()[1]
    planted.write_text("raise SystemExit('planted module ran')\n")
    return planted


@pytest.mark.parametrize("how", ["world-writable", "group-writable",
                                 "other-owner", "symlink"])
def test_a_shared_temp_dir_is_never_loaded_from(tmp_path, monkeypatch, how):
    """Another user may create the temp-dir cache first and plant a module
    at its predictable name: the loop then falls back instead."""
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    user = tmp_path / "user"
    if how == "symlink":
        _plant(tmp_path / "elsewhere").parent.chmod(0o700)
        user.symlink_to(tmp_path / "elsewhere")
    else:
        _plant(user)
        user.chmod({"world-writable": 0o777, "group-writable": 0o770,
                    "other-owner": 0o700}[how])
    if how == "other-owner":
        uid = os.getuid() + 1
        monkeypatch.setattr(os, "getuid", lambda: uid)
    monkeypatch.setattr(batch, "_cache_dirs",
                        lambda: (blocker / "__pycache__", user))

    def no_build(*args):
        raise AssertionError("built into a refused directory")

    monkeypatch.setattr(batch, "_build", no_build)
    with pytest.raises(RuntimeError, match="not a private directory"):
        batch._artifact_path()
    monkeypatch.delitem(sys.modules, batch._artifact()[0], raising=False)
    batch._native.cache_clear()
    try:
        with pytest.warns(RuntimeWarning, match="not a private directory"):
            assert batch._native() is None
    finally:
        batch._native.cache_clear()


class NoneProbe(HAShCachePolicy):
    """A third-party ``extra_probe_latency`` that returns None."""

    def extra_probe_latency(self, klass, chained):
        return None


class FloatChannel(NoPartitionPolicy):
    """A third-party ``way_channel`` that returns a float."""

    def way_channel(self, set_id, way):
        return float(super().way_channel(set_id, way))


@pytest.mark.parametrize("design,policy", [("hashcache", NoneProbe),
                                           ("baseline", FloatChannel)])
@pytest.mark.parametrize("engine", [Simulation, FastSimulation])
def test_a_bad_hook_value_raises_on_every_loop(design, policy, engine):
    """A value the native loop cannot take from a hook raises the
    ``TypeError`` the Python loops raise, instead of running on with a
    default."""
    sim = engine(design_config(design, default_system()), policy(),
                 build_mix("C1", seed=7, **TINY))
    with pytest.raises(TypeError):
        sim.run()
    if batch._native() is not None:
        assert _live() == 0


@needs_native
def test_job_timeout_interrupts_a_native_cell():
    """Budget returns let the SIGALRM handler run inside a long C run."""
    cfg = apply_overrides(design_config("hydrogen", default_system()), {
        "epochs.epoch_cycles": 1e12, "epochs.faucet_cycles": 1e12,
        "epochs.phase_cycles": 1e12})
    mix = build_mix("C1", seed=7, cpu_refs=200_000, gpu_refs=800_000)
    sim = FastSimulation(cfg, make_policy("hydrogen"), mix)
    t0 = time.perf_counter()
    with pytest.raises(JobTimeout):
        with time_limit(0.2):
            sim.run()
    assert time.perf_counter() - t0 < 1.0
    assert sim._run is None and _live() == 0


@needs_native
def test_native_cells_are_freed_back_to_back():
    designs = ("baseline", "hydrogen", "profess", "hashcache", "waypart")
    for i in range(200):
        design = designs[i % len(designs)]
        mix = build_mix("C1", seed=i, cpu_refs=60, gpu_refs=240)
        cfg = design_config(design, default_system())
        sim = FastSimulation(cfg, make_policy(design), mix)
        sim.run()
        assert sim._run is None
    assert _live() == 0


@needs_native
@pytest.mark.parametrize("load", ["_load_agents", "_load_channels",
                                  "_load_controller", "_load_queue"])
def test_native_cell_is_freed_when_its_set_up_is_interrupted(monkeypatch,
                                                             load):
    """A timeout landing while the cell's state moves into C still frees
    the cell and gives every part back its plain class."""
    def interrupted(self):
        raise JobTimeout("job exceeded its budget")

    monkeypatch.setattr(batch._NativeRun, load, interrupted)
    sim = _cell()
    plain = [type(p) for p in (sim.eq, sim.ctrl, sim.ctrl.remap,
                               *sim.agents, *sim.ctrl._fast_ch,
                               *sim.ctrl._slow_ch)]
    with pytest.raises(JobTimeout):
        sim.run()
    assert sim._run is None and _live() == 0
    assert [type(p) for p in (sim.eq, sim.ctrl, sim.ctrl.remap,
                              *sim.agents, *sim.ctrl._fast_ch,
                              *sim.ctrl._slow_ch)] == plain


class RaisingEpoch(HydrogenPolicy):
    def on_epoch(self, now, metrics):
        raise RuntimeError("epoch hook failed")


@needs_native
def test_native_cell_is_freed_when_a_tick_raises():
    sim = FastSimulation(design_config("hydrogen", default_system()),
                         RaisingEpoch.full(), build_mix("C1", seed=7, **TINY))
    with pytest.raises(RuntimeError, match="epoch hook failed"):
        sim.run()
    assert sim._run is None and _live() == 0


@needs_native
def test_native_cell_is_freed_when_it_stalls():
    cfg = apply_overrides(default_system(), {"slow.link_latency": 1e7,
                                             "epochs.epoch_cycles": 1.0})
    mix = build_mix("C1", seed=7, **TINY)
    sim = FastSimulation(cfg, make_policy("baseline"), mix, stall_epochs=3)
    with pytest.raises(SimulationStalled):
        sim.run()
    assert sim._run is None and _live() == 0
    ref = Simulation(cfg, make_policy("baseline"), mix, stall_epochs=3)
    with pytest.raises(SimulationStalled):
        ref.run()
    assert sim.eq.now == ref.eq.now
