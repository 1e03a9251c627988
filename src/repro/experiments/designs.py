"""Registry of the designs compared in the paper's evaluation (Section V).

Every design is a (policy factory, config transform) pair: HAShCache's
native organization is direct-mapped, so its transform rebuilds the system
geometry with assoc=1 at equal capacity — exactly how the paper sets up the
Fig. 5 comparison.  Pass ``native_geometry=False`` to force a design onto
the system's geometry (the Fig. 11 sweep does this and disables chaining).
"""

from __future__ import annotations

from typing import Callable

from repro.config import SystemConfig
from repro.core.hydrogen import HydrogenPolicy
from repro.hybrid.policies.base import PartitionPolicy
from repro.hybrid.policies.hashcache import HAShCachePolicy
from repro.hybrid.policies.llm import (LayerSplitPolicy, TokenLRUPolicy,
                                       WindowPinPolicy)
from repro.hybrid.policies.nopart import NoPartitionPolicy
from repro.hybrid.policies.profess import ProfessPolicy
from repro.hybrid.policies.setpart import SetPartitionPolicy
from repro.hybrid.policies.waypart import WayPartPolicy

PolicyFactory = Callable[[], PartitionPolicy]

_REGISTRY: dict[str, PolicyFactory] = {
    "baseline": NoPartitionPolicy,
    "hashcache": HAShCachePolicy,
    "profess": ProfessPolicy,
    "waypart": WayPartPolicy,
    "hydrogen-dp": HydrogenPolicy.dp,
    "hydrogen-dp-token": HydrogenPolicy.dp_token,
    "hydrogen": HydrogenPolicy.full,
    # Extensions / ablations (DESIGN.md section 7).
    "setpart": SetPartitionPolicy,
    "hydrogen-per-channel-tokens": lambda: _named(
        HydrogenPolicy.full(per_channel_tokens=True),
        "hydrogen-per-channel-tokens"),
    # KV-cache placement baselines (docs/workloads.md; ported from the
    # Data_Placement exemplar, see repro.hybrid.policies.llm).
    "kv-windowpin": WindowPinPolicy,
    "kv-layersplit": LayerSplitPolicy,
    "kv-tokenlru": TokenLRUPolicy,
}


def _named(policy: PartitionPolicy, name: str) -> PartitionPolicy:
    policy.name = name
    return policy

#: Designs shown in Fig. 5, in plot order.
FIG5_DESIGNS = ("hashcache", "profess", "waypart",
                "hydrogen-dp", "hydrogen-dp-token", "hydrogen")

#: KV-cache comparison set: Hydrogen against the ported placement
#: baselines, all under identical faucet/controller mechanics.
KVCACHE_DESIGNS = ("kv-windowpin", "kv-layersplit", "kv-tokenlru",
                   "hydrogen")

ALL_DESIGNS = tuple(_REGISTRY)


def check_design(name: str) -> None:
    """Raise ``KeyError`` naming the known designs unless ``name`` is one."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown design {name!r}; known: "
                       f"{', '.join(ALL_DESIGNS)}")


def make_policy(name: str) -> PartitionPolicy:
    """A fresh policy instance for a registry name (see ``ALL_DESIGNS``)."""
    check_design(name)
    return _REGISTRY[name]()


def design_config(name: str, cfg: SystemConfig,
                  native_geometry: bool = True) -> SystemConfig:
    """System configuration a design runs under."""
    if name == "hashcache" and native_geometry:
        return HAShCachePolicy.geometry(cfg)
    return cfg
