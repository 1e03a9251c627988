"""Synthetic memory-access traces.

The paper drives its simulator with Pin/GPU traces of SPEC CPU2017, Rodinia
and MLPerf-BERT (artifact task T1).  Those inputs are proprietary or need
real GPUs, so this reproduction generates *synthetic* traces from per-
workload mixture models (see DESIGN.md section 2).  Each reference is drawn
from a mixture of three access patterns:

* ``stream``  — a handful of concurrent sequential streams (spatial
  locality; rewards 256 B block migration and DRAM row hits),
* ``hot``     — Zipf-distributed references into a hot working set
  (temporal locality; rewards fast-memory *capacity*),
* ``random``  — uniform references over the footprint (no locality).

Generation is fully NumPy-vectorized and deterministic given the seed.
Addresses are 64 B-cacheline aligned, matching the demand granularity of
the modeled system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.config import CACHELINE, KB

#: Large odd multiplier used to scatter Zipf ranks over the hot region so
#: that temporally-hot lines are not also trivially spatially adjacent.
_SCATTER = 0x9E3779B1


@dataclass(frozen=True)
class TraceSpec:
    """Mixture-model description of one workload's memory behaviour."""

    name: str
    klass: str  # "cpu" or "gpu"
    footprint: int  # bytes
    stream_frac: float
    hot_frac: float
    #: Hot working-set size as a fraction of the footprint.
    hot_set_frac: float
    write_frac: float
    #: Mean compute cycles between consecutive memory references
    #: (lower = more memory-intensive).
    gap_mean: float
    zipf_a: float = 1.3
    n_streams: int = 4

    @property
    def random_frac(self) -> float:
        return max(0.0, 1.0 - self.stream_frac - self.hot_frac)

    def scaled(self, factor: float) -> "TraceSpec":
        """Scale the footprint (used by the runner's global scale knob)."""
        fp = max(64 * KB, int(self.footprint * factor))
        return replace(self, footprint=fp)


class TraceColumns:
    """Structure-of-arrays materialization of one trace for one geometry.

    The decoded per-reference columns the replay engines consume, as
    five plain lists for the CPython interpreter loop, where scalar list
    indexing beats NumPy scalar indexing several-fold: ``addr_list``
    (int byte addresses), ``write_list`` (bool), ``gap_list`` (float
    compute gaps), and the geometry-derived ``block_list``
    (``addr // block_bytes``) and ``set_list`` (``block % num_sets``).
    Each list equals the ``tolist()`` of its NumPy column, value for
    value and type for type, but holds **one object per distinct
    value**: a full-scale GPU trace of 150,000 references has 65,536
    distinct addresses and 7 distinct gaps, and a reference stores a
    pointer, not its own ``int``/``float``.  ``addr``/``is_write``/``gap``
    are the trace's own arrays; ``klass`` and the 64 B demand size are
    trace-level constants, not per-access columns.

    All columns are built **once** per trace object and geometry and
    cached on the :class:`Trace` (see :meth:`Trace.columns`), so
    simulations that replay the same ``Trace`` object share one decode.
    A sweep builds a fresh mix per cell, so there each cell decodes its
    own traces.
    """

    __slots__ = ("addr", "is_write", "gap", "addr_list", "write_list",
                 "gap_list", "block_list", "set_list")

    def __init__(self, trace: "Trace", block_bytes: int,
                 num_sets: int) -> None:
        self.addr = trace.addrs
        self.is_write = trace.writes
        self.gap = trace.gaps
        # Distinct values and, per reference, the index of its value.
        # Blocks are found among the distinct addresses and sets among
        # the distinct blocks, not among all references; indexing one
        # index array by the other maps each reference to them.
        addrs, addr_at = np.unique(trace.addrs, return_inverse=True)
        blocks, block_at = np.unique(addrs // block_bytes,
                                     return_inverse=True)
        sets, set_at = np.unique(blocks % num_sets, return_inverse=True)
        block_at = block_at[addr_at]
        gaps, gap_at = np.unique(trace.gaps, return_inverse=True)
        self.addr_list = self._shared_list(addrs, addr_at)
        self.write_list = trace.writes.tolist()
        self.gap_list = self._shared_list(gaps, gap_at)
        self.block_list = self._shared_list(blocks, block_at)
        self.set_list = self._shared_list(sets, set_at[block_at])

    @staticmethod
    def _shared_list(values: np.ndarray, at: np.ndarray) -> list:
        """``values[at].tolist()`` holding one object per entry of
        ``values``.

        ``astype(object)`` makes one ``int``/``float`` per distinct
        value, the one ``tolist()`` would make, and indexing the object
        array copies references to it, not the value (bools are shared
        already: ``True``/``False`` are singletons).
        """
        return values.astype(object)[at].tolist()


class Trace:
    """A generated reference stream (structure-of-arrays)."""

    __slots__ = ("name", "klass", "addrs", "writes", "gaps", "footprint",
                 "base", "_columns")

    def __init__(self, name: str, klass: str, addrs: np.ndarray,
                 writes: np.ndarray, gaps: np.ndarray, footprint: int,
                 base: int) -> None:
        self.name = name
        self.klass = klass
        self.addrs = addrs
        self.writes = writes
        self.gaps = gaps
        self.footprint = footprint
        self.base = base
        self._columns: dict[tuple[int, int], TraceColumns] = {}

    def __len__(self) -> int:
        return len(self.addrs)

    @property
    def instructions(self) -> float:
        """Instructions this trace represents (1 mem op + gap per ref)."""
        return float(len(self.addrs)) + float(self.gaps.sum())

    def columns(self, block_bytes: int, num_sets: int) -> TraceColumns:
        """The memoized :class:`TraceColumns` SoA for one geometry.

        Cached per ``(block_bytes, num_sets)`` on this trace instance, so
        every simulation replaying this trace object under the same
        cache geometry shares one decode (the arrays must be treated as
        immutable, which every engine honors).
        """
        key = (block_bytes, num_sets)
        cols = self._columns.get(key)
        if cols is None:
            cols = TraceColumns(self, block_bytes, num_sets)
            self._columns[key] = cols
        return cols

    def rebased(self, base: int) -> "Trace":
        """Copy of this trace relocated to a new base address."""
        return Trace(self.name, self.klass, self.addrs - self.base + base,
                     self.writes, self.gaps, self.footprint, base)


def _stream_addresses(n: int, footprint: int, n_streams: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Interleaved sequential streams, each walking its footprint slice."""
    lines_per_stream = max(1, footprint // (CACHELINE * n_streams))
    stream_ids = rng.integers(0, n_streams, size=n)
    # occurrence index of each reference within its stream
    order = np.zeros(n, dtype=np.int64)
    for s in range(n_streams):
        mask = stream_ids == s
        order[mask] = np.arange(int(mask.sum()))
    offsets = (order % lines_per_stream) * CACHELINE
    bases = stream_ids * lines_per_stream * CACHELINE
    return bases + offsets


def _hot_addresses(n: int, footprint: int, hot_set_frac: float, zipf_a: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Zipf-weighted references into the hot working set."""
    hot_lines = max(16, int(footprint * hot_set_frac) // CACHELINE)
    ranks = rng.zipf(zipf_a, size=n)
    # Fold the (heavy) tail uniformly over the hot set rather than clipping:
    # clipping would concentrate all tail mass on one artificial super-hot
    # line, destroying the capacity sensitivity the CPU model needs.
    lines = ((ranks - 1) % hot_lines) * _SCATTER % hot_lines
    return lines * CACHELINE


def _random_addresses(n: int, footprint: int,
                      rng: np.random.Generator) -> np.ndarray:
    lines = rng.integers(0, max(1, footprint // CACHELINE), size=n)
    return lines * CACHELINE


def generate_trace(spec: TraceSpec, n_refs: int, seed: int,
                   base: int = 0) -> Trace:
    """Generate ``n_refs`` references for ``spec`` at address ``base``."""
    if n_refs <= 0:
        raise ValueError("n_refs must be positive")
    rng = np.random.default_rng(seed)
    kinds = rng.choice(3, size=n_refs,
                       p=[spec.stream_frac, spec.hot_frac, spec.random_frac])
    addrs = np.zeros(n_refs, dtype=np.int64)

    m_stream = kinds == 0
    m_hot = kinds == 1
    m_rand = kinds == 2
    ns, nh, nr = int(m_stream.sum()), int(m_hot.sum()), int(m_rand.sum())
    if ns:
        addrs[m_stream] = _stream_addresses(ns, spec.footprint, spec.n_streams, rng)
    if nh:
        addrs[m_hot] = _hot_addresses(nh, spec.footprint, spec.hot_set_frac,
                                      spec.zipf_a, rng)
    if nr:
        addrs[m_rand] = _random_addresses(nr, spec.footprint, rng)

    addrs += base
    writes = rng.random(n_refs) < spec.write_frac
    # Integer (Poisson) gaps: same mean compute-per-reference, but zero-gap
    # references batch into bursts — both closer to real issue behaviour
    # (GPU wavefronts) and far cheaper to simulate than sub-cycle wakeups.
    gaps = rng.poisson(spec.gap_mean, size=n_refs).astype(np.float32)
    return Trace(spec.name, spec.klass, addrs, writes, gaps, spec.footprint, base)


def characterize(trace: Trace) -> dict:
    """Quick footprint/locality summary (used by the Table II benchmark)."""
    lines = np.unique(trace.addrs // CACHELINE)
    blocks = np.unique(trace.addrs // 256)
    return {
        "refs": len(trace),
        "unique_lines": int(lines.size),
        "unique_blocks": int(blocks.size),
        "touched_bytes": int(lines.size) * CACHELINE,
        "write_frac": float(trace.writes.mean()),
        "mean_gap": float(trace.gaps.mean()),
        "refs_per_block": len(trace) / max(1, blocks.size),
    }
