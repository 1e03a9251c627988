"""Golden bit-exact equivalence: the fast engine vs the reference.

The fast engine's contract is *bit-exact replay* — not approximate
agreement — so every comparison here is full ``SimResult`` dataclass
equality (cycles, IPCs, the whole stats dict, energy, per-agent metrics,
policy end state).  The grid covers every inline kernel (every
registered design, plus HAShCache on the system geometry), the kv-*
placement baselines, a custom policy subclass that forces every delegate
fallback, one subclass per companion override of a shared kernel,
warmup-boundary and seed variants, mixed cell shapes run back to back in
one process, the ``"batch"`` alias, and both the numba-absent and
numba-present bank-service selections.
"""

from __future__ import annotations

import importlib
import sys
import types

import pytest

import repro.engine.batch as batch_engine
from repro.config import default_system
from repro.core.hydrogen import HydrogenPolicy
from repro.engine.batch import FastSimulation
from repro.engine.simulator import Simulation, resolve_engine, simulate
from repro.experiments.designs import design_config, make_policy
from repro.hybrid.policies.hashcache import HAShCachePolicy
from repro.hybrid.policies.profess import ProfessPolicy
from repro.hybrid.policies.waypart import WayPartPolicy
from repro.traces.mixes import build_mix

TINY = dict(cpu_refs=1500, gpu_refs=7000)

#: Designs exercising every inline kernel of the fast controller: base
#: hooks, HAShCache chaining + alternate sets, ProFess probabilistic
#: migration, WayPart geometry, Hydrogen's decoupled map, swap and token
#: guard (global and per-channel faucets), and SetPartition's per-set
#: geometry rows.
DESIGNS = ("baseline", "hashcache", "profess", "waypart", "hydrogen-dp",
           "hydrogen-dp-token", "hydrogen", "setpart",
           "hydrogen-per-channel-tokens")


def run_engines(design, mix_name="C1", seed=7, sim_kw=None,
                native_geometry=True, policy=None, **mix_kw):
    """(reference, fast) results of one cell, same inputs.

    ``policy`` is a factory that replaces the design's registry policy
    (the design name then only picks the geometry).
    """
    mix = build_mix(mix_name, seed=seed, **{**TINY, **mix_kw})
    cfg = design_config(design, default_system(), native_geometry)
    make = policy or (lambda: make_policy(design))
    kw = sim_kw or {}
    ref = Simulation(cfg, make(), mix, **kw).run()
    fast = FastSimulation(cfg, make(), mix, **kw).run()
    return ref, fast


@pytest.mark.parametrize("design", DESIGNS)
def test_bit_exact_per_design(design):
    ref, fast = run_engines(design)
    assert fast == ref


def test_bit_exact_hashcache_on_system_geometry():
    """Chaining off: the flat-tag-latency probe kernel and the home-set
    LRU insert of the chain kernel."""
    ref, fast = run_engines("hashcache", native_geometry=False)
    assert fast == ref


@pytest.mark.parametrize("mix_name", ["C2", "C5", "C7", "C10"])
def test_bit_exact_across_mixes(mix_name):
    ref, fast = run_engines("hydrogen", mix_name=mix_name)
    assert fast == ref


#: The ported KV-cache placement baselines (repro.hybrid.policies.llm):
#: every one overrides a hot hook, so the fast engine must take their
#: delegate-fallback paths and still replay bit-exactly.
KV_DESIGNS = ("kv-windowpin", "kv-layersplit", "kv-tokenlru")


@pytest.mark.parametrize("design", KV_DESIGNS + ("hydrogen", "baseline"))
def test_bit_exact_kvcache_mix(design):
    ref, fast = run_engines(design, mix_name="kvcache")
    assert fast == ref


def test_bit_exact_kvcache_variants():
    for mix_name in ("kvcache-prefill", "kvcache-batch"):
        ref, fast = run_engines("kv-windowpin", mix_name=mix_name)
        assert fast == ref


@pytest.mark.parametrize("seed", [3, 11])
def test_bit_exact_across_seeds(seed):
    ref, fast = run_engines("profess", seed=seed)
    assert fast == ref


class ChattyHAShCache(HAShCachePolicy):
    """Subclass overriding hooks so every HAShCache kernel resolves to
    "delegate" and the fast engine must call the policy."""

    name = "chatty-hashcache"

    def alternate_set(self, set_id, block):
        return super().alternate_set(set_id, block)

    def extra_probe_latency(self, klass, chained):
        return super().extra_probe_latency(klass, chained)

    def allow_migration(self, klass, block, cost, is_write):
        return super().allow_migration(klass, block, cost, is_write)

    def pick_insertion(self, set_id, block, klass):
        return super().pick_insertion(set_id, block, klass)


def test_bit_exact_custom_policy_delegate_paths():
    mix = build_mix("C1", seed=7, **TINY)
    cfg = design_config("hashcache", default_system())
    ref = Simulation(cfg, ChattyHAShCache(), mix).run()
    fast = FastSimulation(cfg, ChattyHAShCache(), mix).run()
    assert fast == ref


# A kernel mirrors every hook that declares it, so overriding any one
# of them must send its companions to the delegate path as well.

class LadderProfess(ProfessPolicy):
    def p_of(self, klass):
        return super().p_of(klass)


class ChainHAShCache(HAShCachePolicy):
    def _chain_set(self, block):
        return super()._chain_set(block)


class OwnerWayPart(WayPartPolicy):
    def way_owner(self, set_id, way):
        return super().way_owner(set_id, way)


class GuardHydrogen(HydrogenPolicy):
    def allow_migration(self, klass, block, cost, is_write):
        return super().allow_migration(klass, block, cost, is_write)


@pytest.mark.parametrize("design,policy,hooks", [
    ("profess", LadderProfess, ("allow_migration",)),
    ("hashcache", ChainHAShCache, ("alternate_set", "pick_insertion")),
    ("waypart", OwnerWayPart, ("way_channel", "eligible_ways")),
    ("hydrogen", GuardHydrogen.full, ("allow_migration",)),
], ids=["profess-p_of", "hashcache-_chain_set", "waypart-way_owner",
        "hydrogen-allow_migration"])
def test_companion_override_delegates_bit_exact(design, policy, hooks):
    for hook in hooks:
        assert type(policy()).kernel(hook) == "delegate", hook
    ref, fast = run_engines(design, policy=policy)
    assert fast == ref


def test_engine_kwarg_selects_fastpath(monkeypatch):
    """``engine="fast"`` and the default both build the fast engine."""
    built = []

    class Spy(FastSimulation):
        def __init__(self, *args, **kw):
            built.append(self)
            super().__init__(*args, **kw)

    monkeypatch.setattr(batch_engine, "FastSimulation", Spy)
    mix = build_mix("C1", **TINY)
    cfg = design_config("hydrogen", default_system())
    ref = simulate(cfg, make_policy("hydrogen"), mix, engine="reference")
    assert built == []
    for kw in ({"engine": "fast"}, {}):
        assert simulate(cfg, make_policy("hydrogen"), mix, **kw) == ref
    assert len(built) == 2


def test_resolve_engine_needs_a_name(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "reference")   # no longer read
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine(None)
    assert resolve_engine("batch") == "fast"
    assert resolve_engine("reference") == "reference"


#: Heterogeneous cells: different designs, mixes, trace footprints,
#: seeds and warmup boundaries, so no two cells agree on shape or on
#: where their measurement windows open.
MIXED_CELLS = (
    ("hashcache", "C1", 7, dict(cpu_refs=900, gpu_refs=4000), {}),
    ("hydrogen", "C5", 3, dict(cpu_refs=1500, gpu_refs=7000), {}),
    ("profess", "C2", 11, dict(cpu_refs=400, gpu_refs=9000),
     dict(warmup_cpu=0.0, warmup_gpu=0.5)),
    ("waypart", "C7", 5, dict(cpu_refs=2000, gpu_refs=2000),
     dict(warmup_cpu=0.5, warmup_gpu=0.1)),
    ("kv-windowpin", "kvcache", 7, dict(cpu_refs=900, gpu_refs=4000), {}),
)


def test_mixed_cells_back_to_back_match_standalone():
    """Cells run one after another in one process (a serial sweep, the
    service executor) must not leak state into each other: in either
    order, every cell equals its standalone reference run."""
    cells, expect = [], []
    for design, mix_name, seed, shape, sim_kw in MIXED_CELLS:
        mix = build_mix(mix_name, seed=seed, **shape)
        cfg = design_config(design, default_system())
        expect.append(
            Simulation(cfg, make_policy(design), mix, **sim_kw).run())
        cells.append((cfg, design, mix, sim_kw))
    forward = list(range(len(cells)))
    for order in (forward, forward[::-1]):
        for i in order:
            cfg, design, mix, sim_kw = cells[i]
            got = FastSimulation(cfg, make_policy(design), mix,
                                 **sim_kw).run()
            assert got == expect[i], MIXED_CELLS[i][:2]


@pytest.mark.parametrize("warmups", [
    dict(warmup_cpu=0.0, warmup_gpu=0.0),
    dict(warmup_cpu=0.5, warmup_gpu=0.1),
])
def test_batch_warmup_boundaries(warmups):
    ref, fast = run_engines("hydrogen", sim_kw=warmups)
    assert fast == ref


def test_batch_single_cell_equals_fastpath(monkeypatch):
    """``engine="batch"`` is an alias: it builds the fast engine's
    class and returns the same result."""
    cls = batch_engine.FastSimulation
    built = []
    init = cls.__init__

    def spy(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", spy)
    mix = build_mix("C1", seed=7, **TINY)
    cfg = design_config("hydrogen-dp", default_system())
    fast = simulate(cfg, make_policy("hydrogen-dp"), mix, engine="fast")
    alias = simulate(cfg, make_policy("hydrogen-dp"), mix, engine="batch")
    assert built == [cls, cls]
    assert alias == fast


def test_batch_custom_policy_delegate_paths():
    """The delegate paths under the write-heavy KV-cache mix, reached
    through the ``"batch"`` alias."""
    mix = build_mix("kvcache", seed=7, **TINY)
    cfg = design_config("hashcache", default_system())
    ref = Simulation(cfg, ChattyHAShCache(), mix).run()
    alias = simulate(cfg, ChattyHAShCache(), mix, engine="batch")
    assert alias == ref


def _reload_engine_modules():
    """Re-run the import-time kernel selection in _kernels and batch."""
    import repro.engine._kernels as kernels
    import repro.engine.batch as batch
    importlib.reload(kernels)
    importlib.reload(batch)
    return kernels, batch


def _restore_numba(had):
    if had is None:
        sys.modules.pop("numba", None)
    else:
        sys.modules["numba"] = had
    _reload_engine_modules()


def test_numba_absent_selects_pure_fallback():
    had = sys.modules.get("numba")
    # ``None`` in sys.modules makes ``import numba`` raise ImportError
    # even where numba is installed.
    sys.modules["numba"] = None
    try:
        kernels, batch = _reload_engine_modules()
        assert kernels.HAVE_NUMBA is False
        assert kernels.bank_service is kernels._bank_service_py
        assert batch._BANK_SERVICE is None
        mix = build_mix("C1", seed=7, **TINY)
        cfg = design_config("hydrogen", default_system())
        ref = Simulation(cfg, make_policy("hydrogen"), mix).run()
        cell = batch.FastSimulation(cfg, make_policy("hydrogen"), mix)
        assert cell.run() == ref
    finally:
        _restore_numba(had)


def test_numba_present_selects_compiled_kernel():
    had = sys.modules.get("numba")
    fake = types.ModuleType("numba")

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def deco(fn):
            return fn
        return deco

    fake.njit = njit
    sys.modules["numba"] = fake
    try:
        kernels, batch = _reload_engine_modules()
        assert kernels.HAVE_NUMBA is True
        assert batch._BANK_SERVICE is kernels.bank_service
        mix = build_mix("C1", seed=7, **TINY)
        cfg = design_config("hydrogen", default_system())
        ref = Simulation(cfg, make_policy("hydrogen"), mix).run()
        cell = batch.FastSimulation(cfg, make_policy("hydrogen"), mix)
        # the kernelized channels keep their int64 open-row tables
        assert all(ch._rows_arr is not None
                   for ch in (*cell.ctrl.fast.channels,
                              *cell.ctrl.slow.channels))
        assert cell.run() == ref
    finally:
        _restore_numba(had)
