"""A finished simulation frees itself by reference counting.

``Simulation.run()`` cuts the engine's reference cycles when it returns
or raises, so cells run back to back in one process (a sweep worker, the
campaign server, the benchmark) leave nothing behind for the cyclic GC.
Each test runs with the cyclic GC off and ``gc.DEBUG_SAVEALL`` on: an
object a cell leaves that only the cyclic GC could free then shows up in
``gc.garbage`` after an explicit ``gc.collect()``.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro import api
from repro.engine.agents import TraceAgent
from repro.engine.events import EventQueue
from repro.engine.fastpath import FastChannel
from repro.engine.simulator import Simulation
from repro.hybrid.controller import HybridMemoryController
from repro.hybrid.policies.nopart import NoPartitionPolicy
from repro.hybrid.remap import RemapCache
from repro.hybrid.setassoc import FastStore
from repro.mem.channel import Channel
from repro.mem.device import MemoryDevice
from repro.telemetry import EpochRecorder
from repro.traces.base import Trace, TraceColumns
from repro.traces.mixes import WorkloadMix, build_mix

#: Engine objects a finished cell must not leave to the cyclic GC (the
#: fast engine's parts subclass these, except its channel).
ENGINE_TYPES = (Simulation, TraceAgent, Trace, TraceColumns, WorkloadMix,
                Channel, FastChannel, MemoryDevice, HybridMemoryController,
                FastStore, RemapCache, EventQueue)

#: One design per policy family; the kv-* designs run on the KV-cache mix.
CELLS = [("baseline", "C1"), ("hashcache", "C1"), ("profess", "C1"),
         ("waypart", "C1"), ("setpart", "C1"), ("hydrogen", "C1"),
         ("kv-windowpin", "kvcache"), ("kv-layersplit", "kvcache"),
         ("kv-tokenlru", "kvcache")]

ENGINES = ("fast", "reference")


def small_mix(name: str) -> WorkloadMix:
    """A fresh mix per cell, so its traces and columns are checked too."""
    return build_mix(name, seed=7, scale=0.02, cpu_copies=1)


@pytest.fixture
def leftovers():
    """Run the test with the cyclic GC off and DEBUG_SAVEALL on.

    Yields a function that collects and returns a type-name count of the
    engine objects only the cyclic GC could have freed.
    """
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)

    def collect() -> Counter:
        gc.collect()
        found = Counter(type(o).__name__ for o in gc.garbage
                        if isinstance(o, ENGINE_TYPES))
        gc.garbage.clear()
        return found

    try:
        yield collect
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _live_simulations() -> int:
    """Simulations alive now.  Tests compare it with the count at their
    start, so an earlier failing test whose report holds one cannot fail
    them."""
    return sum(isinstance(o, Simulation) for o in gc.get_objects())


@pytest.mark.parametrize("engine", ENGINES)
def test_finished_cells_leave_no_cyclic_garbage(engine, leftovers):
    for design, mix in CELLS:
        api.simulate(mix=small_mix(mix), design=design, engine=engine)
        assert leftovers() == Counter(), (engine, design)


@pytest.mark.parametrize("engine", ENGINES)
def test_kept_sink_does_not_pin_the_simulation(engine, leftovers):
    alive = _live_simulations()
    for design, mix in CELLS:
        rec = EpochRecorder()
        res = api.simulate(mix=small_mix(mix), design=design,
                           engine=engine, telemetry=rec)
        assert leftovers() == Counter(), (engine, design)
        assert _live_simulations() == alive, (engine, design)
        assert rec.epochs                  # the samples stay with the sink
        assert rec.now == res.elapsed      # ...and its clock reads the end


class _FailingPolicy(NoPartitionPolicy):
    """Baseline whose first epoch hook raises mid-run."""

    def on_epoch(self, now: float, metrics: dict) -> None:
        raise RuntimeError("epoch hook failed")


@pytest.mark.parametrize("engine", ENGINES)
def test_a_run_that_raises_is_released_too(engine, leftovers):
    alive = _live_simulations()
    rec, policy = EpochRecorder(), _FailingPolicy()
    try:
        api.simulate(mix=small_mix("C1"), design=policy, engine=engine,
                     telemetry=rec)
    except RuntimeError as exc:
        assert "epoch hook failed" in str(exc)
    else:
        pytest.fail("the failing policy did not raise")
    assert leftovers() == Counter()
    assert _live_simulations() == alive
    assert policy.ctrl is None          # a kept policy pins no controller
    assert rec.now is not None and rec.now > 0
