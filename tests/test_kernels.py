"""Inline kernels: the contract between the policies and the fast engine.

A policy hook with an inline twin in the fast engine declares the
twin's name with :func:`~repro.hybrid.policies.base.inlined`;
:meth:`PartitionPolicy.kernel` resolves what a class may use; the engine
switches on those names only (``repro.engine.fastpath.KERNELS``).  These
tests pin that boundary: the engine imports no concrete policy, the
catalog declares exactly the kernels the engine implements, every
registered design resolves to its pinned specialization flags, and
declaring is free at call time.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import repro.engine
from repro.config import default_system
from repro.core.hydrogen import HydrogenPolicy
from repro.engine.fastpath import (KERNELS, FastEventQueue,
                                   FastHybridController)
from repro.engine.stats import Stats
from repro.experiments.designs import ALL_DESIGNS, design_config, make_policy
from repro.hybrid.policies.base import PartitionPolicy, inlined
from repro.hybrid.policies.nopart import NoPartitionPolicy
from repro.hybrid.policies.profess import ProfessPolicy

ENGINE_DIR = Path(repro.engine.__file__).parent

#: Specialization flags per design, in the order alt, probe, mig,
#: chan_changed_call, hit_hook, pick, geo.  Pinned so that no registered
#: design silently drops a hook to the delegate path.
FLAGS = {
    ("baseline", True): (0, 0, 0, 0, 0, 1, 2),
    ("hashcache", True): (2, 2, 3, 0, 0, 3, 2),
    ("hashcache", False): (0, 4, 3, 0, 0, 1, 2),
    ("profess", True): (0, 0, 2, 0, 0, 2, 2),
    ("waypart", True): (0, 0, 0, 0, 0, 1, 3),
    ("hydrogen-dp", True): (0, 0, 4, 0, 1, 1, 1),
    ("hydrogen-dp-token", True): (0, 0, 4, 0, 1, 1, 1),
    ("hydrogen", True): (0, 0, 4, 0, 1, 1, 1),
    ("hydrogen-per-channel-tokens", True): (0, 0, 4, 0, 1, 1, 1),
    ("setpart", True): (0, 0, 0, 0, 0, 1, 0),
    ("kv-windowpin", True): (0, 0, 1, 0, 0, 1, 2),
    ("kv-tokenlru", True): (0, 0, 1, 0, 0, 1, 2),
    ("kv-layersplit", True): (0, 0, 1, 0, 0, 1, 0),
}


def controller(policy, design="baseline", native_geometry=True):
    cfg = design_config(design, default_system(), native_geometry)
    return FastHybridController(cfg, FastEventQueue(), Stats(), policy)


def flags(ctrl):
    return (ctrl._alt_mode, ctrl._probe_mode, ctrl._mig_mode,
            int(ctrl._chan_changed_call), ctrl._hit_hook, ctrl._pick_mode,
            ctrl._geo_mode)


def declarations(cls):
    """(class, attribute, function) of each kernel declaration along
    ``cls``'s MRO."""
    return [(owner, attr, impl) for owner in cls.__mro__
            for attr, impl in vars(owner).items()
            if hasattr(impl, "inline_kernel")]


CATALOG = sorted({type(make_policy(d)) for d in ALL_DESIGNS},
                 key=lambda cls: cls.__name__)


def test_every_design_is_pinned():
    assert {d for d, _ in FLAGS} == set(ALL_DESIGNS)


@pytest.mark.parametrize("design,native", sorted(FLAGS))
def test_resolution_pinned_per_design(design, native):
    ctrl = controller(make_policy(design), design, native)
    assert flags(ctrl) == FLAGS[design, native]


def imported_modules(path):
    """Modules a source file imports, and the defining module of every
    name it imports from one (so a re-export cannot hide a policy)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            if not node.module.startswith("repro."):
                continue
            mod = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(mod, alias.name, None)
                yield (getattr(obj, "__module__", None)
                       or getattr(obj, "__name__", node.module))


def test_engine_imports_no_concrete_policy():
    bad = [f"{path.name}: {name}"
           for path in sorted(ENGINE_DIR.glob("*.py"))
           for name in imported_modules(path)
           if name.startswith(("repro.hybrid.policies", "repro.core.hydrogen"))
           and name != "repro.hybrid.policies.base"]
    assert not bad


def test_catalog_declares_exactly_the_engine_kernels():
    declared = {impl.inline_kernel for cls in CATALOG
                for _, _, impl in declarations(cls)}
    implemented = {k for _, row in KERNELS for k in row} - {"delegate"}
    assert declared == implemented


def test_declaring_returns_the_hook_itself():
    def hook(self):
        return None
    assert inlined("lru")(hook) is hook
    assert hook.inline_kernel == "lru"
    for cls in CATALOG:
        for owner, attr, impl in declarations(cls):
            # The class exposes its body's own function: no wrapper frame
            # runs per call.
            assert getattr(owner, attr) is impl
            assert impl.__code__.co_name == impl.__name__ == attr
            assert not hasattr(impl, "__wrapped__")


def test_overriding_one_base_hook_keeps_the_others():
    # ProFess overrides pick_victim only; pick_insertion stays inline.
    assert ProfessPolicy.kernel("pick_victim") == "fewest-hits"
    assert ProfessPolicy.kernel("pick_insertion") == "home-set"
    assert ProfessPolicy.kernel("allow_migration") == "profess-ladder"
    assert NoPartitionPolicy.kernel("on_epoch") == "delegate"


def test_redeclared_override_keeps_its_kernel():
    class Redeclared(HydrogenPolicy):
        @inlined("token-guard")
        def allow_migration(self, klass, block, cost, is_write):
            return super().allow_migration(klass, block, cost, is_write)

    class Silent(Redeclared):
        def allow_migration(self, klass, block, cost, is_write):
            return super().allow_migration(klass, block, cost, is_write)

    assert Redeclared.kernel("allow_migration") == "token-guard"
    assert Silent.kernel("allow_migration") == "delegate"


@pytest.mark.parametrize("kernel", ["lruu", "token-guard"])
def test_kernel_the_engine_lacks_is_an_error(kernel):
    """An unknown name, or a known one on a hook it does not fit."""
    class Typo(PartitionPolicy):
        @inlined(kernel)
        def pick_victim(self, set_id, klass):
            return super().pick_victim(set_id, klass)

    with pytest.raises(ValueError, match="pick_victim declares inline"):
        controller(Typo())
