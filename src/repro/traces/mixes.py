"""Workload mixes and trace assembly.

A mix name is a paper Table II combination (C1-C12), an LLM mix of
:mod:`repro.traces.llm` (``kvcache``, ...), or a custom
``"cpu1-cpu2-...:gpu"`` spec such as ``"gcc-xz:lud"``.  Each runs its
CPU workloads in SPEC "rate mode", with enough copies of each to fill
the 8 CPU cores (Table II's four workloads run two copies each), plus
one GPU workload.  Address regions are laid out back-to-back so every
agent owns a disjoint part of the physical address space, exactly like
separate processes under a first-touch allocator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import MB
from repro.traces.base import Trace, generate_trace
from repro.traces.cpu import cpu_spec
from repro.traces.gpu import gpu_spec
from repro.traces.llm import (LLM_MIX_NAMES, LLM_MIXES,
                              generate_kvcache_trace, llm_spec)

#: Paper Table II.
MIXES: dict[str, tuple[tuple[str, str, str, str], str]] = {
    "C1": (("gcc", "mcf", "lbm", "roms"), "backprop"),
    "C2": (("omnetpp", "lbm", "gcc", "xz"), "backprop"),
    "C3": (("roms", "mcf", "deepsjeng", "cactusBSSN"), "hotspot"),
    "C4": (("lbm", "fotonik3d", "deepsjeng", "omnetpp"), "lud"),
    "C5": (("roms", "lbm", "deepsjeng", "fotonik3d"), "streamcluster"),
    "C6": (("omnetpp", "xz", "roms", "deepsjeng"), "pathfinder"),
    "C7": (("bwaves", "gcc", "xz", "fotonik3d"), "needle"),
    "C8": (("fotonik3d", "gcc", "omnetpp", "deepsjeng"), "bfs"),
    "C9": (("mcf", "cactusBSSN", "roms", "deepsjeng"), "srad"),
    "C10": (("deepsjeng", "xz", "roms", "bwaves"), "pathfinder"),
    "C11": (("omnetpp", "gcc", "fotonik3d", "lbm"), "bert"),
    "C12": (("mcf", "gcc", "cactusBSSN", "omnetpp"), "bert"),
}

ALL_MIXES = tuple(MIXES)

#: Copies per CPU workload (rate mode, 8 cores / 4 workloads).
CPU_COPIES = 2


@dataclass(frozen=True)
class WorkloadMix:
    """Fully generated traces for one Table II combination."""

    name: str
    cpu_traces: tuple[Trace, ...]
    gpu_traces: tuple[Trace, ...]

    @property
    def traces(self) -> tuple[Trace, ...]:
        return self.cpu_traces + self.gpu_traces

    @property
    def footprint(self) -> int:
        return sum(t.footprint for t in self.traces)


def align_region(footprint: int) -> int:
    """Region stride for an agent: footprint rounded up to 1 MB."""
    return (footprint + MB - 1) // MB * MB


def mix_recipe(name: str) -> tuple[tuple[str, ...], str, int]:
    """(CPU workloads, GPU workload, seed salt) of a mix name.

    The salt offsets the mix's per-agent seed stream so the families
    never share one: a Table II name uses its number, an LLM mix
    ``100 + 20 * index`` and a custom spec 7919.  Raises ``KeyError``
    naming the known mixes (or the unknown workload of a custom spec).
    """
    if name in MIXES:
        cpu_names, gpu_name = MIXES[name]
        return cpu_names, gpu_name, int(name[1:])
    if name in LLM_MIXES:
        cpu_names, gpu_name = LLM_MIXES[name]
        return cpu_names, gpu_name, 100 + 20 * LLM_MIX_NAMES.index(name)
    cpu_part, colon, gpu_name = name.partition(":")
    cpu_names = tuple(n for n in cpu_part.split("-") if n)
    if not (colon and cpu_names and gpu_name):
        raise KeyError(f"unknown mix {name!r}; known: Table II "
                       f"{', '.join(MIXES)}, LLM mixes "
                       f"{', '.join(LLM_MIX_NAMES)}, or a custom "
                       f"'cpu1-cpu2:gpu' spec")
    for wname in cpu_names:
        cpu_spec(wname)
    gpu_spec(gpu_name)
    return cpu_names, gpu_name, 7919


def fill_copies(name: str) -> int:
    """Copies per CPU workload that fill the 8 CPU cores for mix
    ``name`` (``CPU_COPIES`` for every Table II and LLM mix); raises
    ``KeyError`` like :func:`mix_recipe`."""
    return max(1, 4 * CPU_COPIES // len(mix_recipe(name)[0]))


def build_mix(name: str, *, cpu_refs: int = 15_000, gpu_refs: int = 150_000,
              seed: int = 7, scale: float = 1.0, footprint_scale: float = 1.0,
              cpu_copies: int | None = None) -> WorkloadMix:
    """Generate all traces for mix ``name`` (see :func:`mix_recipe`).

    ``scale`` multiplies reference counts only (run time vs statistical
    quality); ``footprint_scale`` separately scales working-set sizes (used
    by capacity-pressure sweeps).  Keeping the two independent preserves the
    memory-pressure ratios the paper's results depend on.  ``cpu_copies``
    defaults to :func:`fill_copies`.  An LLM mix's GPU side is a KV-cache
    stream whose region base is aligned to the request stride, so the
    layer/token address arithmetic of :mod:`repro.traces.llm` holds.
    """
    cpu_names, gpu_name, salt = mix_recipe(name)
    if cpu_copies is None:
        cpu_copies = fill_copies(name)

    cpu_traces: list[Trace] = []
    base = 0
    # Deterministic per-mix seed stream (avoid hash(): it is salted per run).
    agent_seed = seed * 1000 + salt
    for wname in cpu_names:
        spec = cpu_spec(wname).scaled(footprint_scale)
        for copy in range(cpu_copies):
            n = max(1000, int(cpu_refs * scale))
            tr = generate_trace(spec, n, seed=agent_seed, base=base)
            cpu_traces.append(tr)
            base += align_region(spec.footprint)
            agent_seed += 1

    n_gpu = max(500, int(gpu_refs * scale))
    if name in LLM_MIXES:
        lspec = llm_spec(gpu_name).scaled(footprint_scale)
        stride = lspec.request_bytes
        base = (base + stride - 1) // stride * stride
        gtr = generate_kvcache_trace(lspec, n_gpu, seed=agent_seed,
                                     base=base)
    else:
        gtr = generate_trace(gpu_spec(gpu_name).scaled(footprint_scale),
                             n_gpu, seed=agent_seed, base=base)
    return WorkloadMix(name, tuple(cpu_traces), (gtr,))


def cpu_only(mix: WorkloadMix) -> WorkloadMix:
    """The mix with the GPU removed (solo CPU run for Fig. 2a)."""
    return WorkloadMix(mix.name + "-cpu", mix.cpu_traces, ())


def gpu_only(mix: WorkloadMix) -> WorkloadMix:
    """The mix with the CPUs removed (solo GPU run for Fig. 2a)."""
    return WorkloadMix(mix.name + "-gpu", (), mix.gpu_traces)
