"""Trace persistence.

The paper's artifact task T1 generates trace files consumed by the
simulator; this module is the equivalent: traces serialize to compressed
``.npz`` files, one per agent of a mix (any mix name
:func:`~repro.traces.mixes.build_mix` takes, custom
``"gcc-mcf-lbm-roms:backprop"`` specs included).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.traces.base import Trace
from repro.traces.mixes import WorkloadMix


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write one trace as a compressed .npz."""
    np.savez_compressed(
        Path(path), addrs=trace.addrs, writes=trace.writes, gaps=trace.gaps,
        meta=np.array([trace.name, trace.klass, str(trace.footprint),
                       str(trace.base)]))


def load_trace(path: str | Path) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    with np.load(Path(path), allow_pickle=False) as data:
        name, klass, footprint, base = (str(x) for x in data["meta"])
        return Trace(name, klass, data["addrs"], data["writes"], data["gaps"],
                     int(footprint), int(base))


def save_mix(mix: WorkloadMix, directory: str | Path) -> list[Path]:
    """Write every trace of a mix into ``directory``; returns the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, tr in enumerate(mix.cpu_traces):
        p = directory / f"{mix.name}-cpu{i}-{tr.name}.npz"
        save_trace(tr, p)
        paths.append(p)
    for i, tr in enumerate(mix.gpu_traces):
        p = directory / f"{mix.name}-gpu{i}-{tr.name}.npz"
        save_trace(tr, p)
        paths.append(p)
    return paths


def load_mix(name: str, directory: str | Path) -> WorkloadMix:
    """Reassemble a mix written by :func:`save_mix`."""
    directory = Path(directory)
    cpu = sorted(directory.glob(f"{name}-cpu*.npz"))
    gpu = sorted(directory.glob(f"{name}-gpu*.npz"))
    if not cpu and not gpu:
        raise FileNotFoundError(f"no traces for mix {name!r} in {directory}")
    return WorkloadMix(name, tuple(load_trace(p) for p in cpu),
                       tuple(load_trace(p) for p in gpu))
