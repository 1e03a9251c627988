"""Tests for synthetic trace generation (Table II substitution)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.config import CACHELINE, KB, MB, SystemConfig
from repro.experiments.sweep import MixSpec
from repro.traces import mixes
from repro.traces.base import TraceSpec, characterize, generate_trace
from repro.traces.cpu import CPU_SPECS, cpu_spec
from repro.traces.gpu import GPU_SPECS, gpu_spec
from repro.traces.mixes import (ALL_MIXES, CPU_COPIES, MIXES, build_mix,
                                cpu_only, gpu_only)


def test_determinism():
    spec = cpu_spec("mcf")
    a = generate_trace(spec, 5000, seed=42)
    b = generate_trace(spec, 5000, seed=42)
    assert np.array_equal(a.addrs, b.addrs)
    assert np.array_equal(a.gaps, b.gaps)
    c = generate_trace(spec, 5000, seed=43)
    assert not np.array_equal(a.addrs, c.addrs)


def test_addresses_within_footprint():
    for spec in list(CPU_SPECS.values()) + list(GPU_SPECS.values()):
        tr = generate_trace(spec, 2000, seed=1, base=1 << 30)
        assert tr.addrs.min() >= 1 << 30
        assert tr.addrs.max() < (1 << 30) + spec.footprint


def test_addresses_cacheline_aligned():
    tr = generate_trace(cpu_spec("gcc"), 1000, seed=2)
    assert (tr.addrs % CACHELINE == 0).all()


def test_write_fraction_approximate():
    spec = cpu_spec("lbm")  # write_frac 0.45
    tr = generate_trace(spec, 20_000, seed=3)
    assert abs(tr.writes.mean() - spec.write_frac) < 0.02


def test_gap_mean_approximate():
    spec = gpu_spec("backprop")
    tr = generate_trace(spec, 50_000, seed=4)
    assert tr.gaps.mean() == pytest.approx(spec.gap_mean, rel=0.1)
    assert (tr.gaps >= 0).all()
    assert tr.gaps == pytest.approx(np.round(tr.gaps))  # integer gaps


def test_streaming_has_spatial_locality():
    """A streaming-heavy trace touches each 256B block several times."""
    tr = generate_trace(cpu_spec("lbm"), 30_000, seed=5)
    c = characterize(tr)
    assert c["refs_per_block"] > 2.0


def test_hot_trace_has_temporal_locality():
    tr = generate_trace(cpu_spec("mcf"), 30_000, seed=6)
    lines, counts = np.unique(tr.addrs // CACHELINE, return_counts=True)
    # The hottest 10% of lines absorb a disproportionate share.
    counts.sort()
    top = counts[-len(counts) // 10:].sum()
    assert top / counts.sum() > 0.2


def test_instructions_counts_gaps():
    tr = generate_trace(cpu_spec("xz"), 1000, seed=7)
    assert tr.instructions == pytest.approx(1000 + tr.gaps.sum())


def test_rebased_trace():
    tr = generate_trace(cpu_spec("xz"), 100, seed=8, base=0)
    tr2 = tr.rebased(4 * MB)
    assert tr2.addrs.min() >= 4 * MB
    assert np.array_equal(tr2.addrs - 4 * MB, tr.addrs)


def test_unknown_workload_raises():
    with pytest.raises(KeyError):
        cpu_spec("doom")
    with pytest.raises(KeyError):
        gpu_spec("doom")


def test_invalid_refs():
    with pytest.raises(ValueError):
        generate_trace(cpu_spec("gcc"), 0, seed=0)


def test_table2_mixes_complete():
    assert len(MIXES) == 12
    assert ALL_MIXES == tuple(f"C{i}" for i in range(1, 13))
    for cpu_names, gpu_name in MIXES.values():
        assert len(cpu_names) == 4
        for n in cpu_names:
            assert n in CPU_SPECS
        assert gpu_name in GPU_SPECS


def test_build_mix_structure():
    mix = build_mix("C1", cpu_refs=1000, gpu_refs=2000)
    assert len(mix.cpu_traces) == 4 * CPU_COPIES
    assert len(mix.gpu_traces) == 1
    assert all(t.klass == "cpu" for t in mix.cpu_traces)
    assert mix.gpu_traces[0].klass == "gpu"
    assert mix.gpu_traces[0].name == "backprop"


def test_mix_regions_disjoint():
    mix = build_mix("C3", cpu_refs=2000, gpu_refs=2000)
    ranges = []
    for t in mix.traces:
        lo, hi = int(t.addrs.min()), int(t.addrs.max())
        for plo, phi in ranges:
            assert hi < plo or lo > phi, "agent address regions overlap"
        ranges.append((lo, hi))


def test_mix_copies_differ():
    mix = build_mix("C1", cpu_refs=1000, gpu_refs=1000)
    a, b = mix.cpu_traces[0], mix.cpu_traces[1]
    assert a.name == b.name  # two copies of the same workload
    assert not np.array_equal(a.addrs - a.base, b.addrs - b.base)


def test_mix_deterministic_across_processes():
    """Seeds must not depend on PYTHONHASHSEED (no hash())."""
    a = build_mix("C7", cpu_refs=500, gpu_refs=500, seed=9)
    b = build_mix("C7", cpu_refs=500, gpu_refs=500, seed=9)
    assert np.array_equal(a.cpu_traces[0].addrs, b.cpu_traces[0].addrs)


def test_scale_applies_to_refs_only():
    m1 = build_mix("C1", cpu_refs=4000, gpu_refs=8000, scale=0.5)
    assert len(m1.cpu_traces[0]) == 2000
    assert len(m1.gpu_traces[0]) == 4000
    # footprints unchanged
    m2 = build_mix("C1", cpu_refs=4000, gpu_refs=8000, scale=1.0)
    assert m1.cpu_traces[0].footprint == m2.cpu_traces[0].footprint


def test_cpu_only_gpu_only():
    mix = build_mix("C5", cpu_refs=500, gpu_refs=500)
    assert cpu_only(mix).gpu_traces == ()
    assert gpu_only(mix).cpu_traces == ()
    assert len(cpu_only(mix).cpu_traces) == 8


def test_unknown_mix_raises():
    with pytest.raises(KeyError):
        build_mix("C99")


@pytest.mark.parametrize("name, seed", [("C1", -1), ("kvcache", -2),
                                        ("gcc-xz:lud", -7)])
def test_negative_seed_raises_naming_it(name, seed):
    # A custom spec's salt (7919) keeps seeds down to -7 valid for numpy.
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
        build_mix(name, cpu_refs=1000, gpu_refs=1000, seed=seed)
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
        MixSpec(name, seed=seed)


@pytest.mark.parametrize("scale", [0, -1, -0.5, float("nan"),
                                   float("inf")])
def test_scale_must_be_positive_and_finite(scale, monkeypatch):
    # build_mix floors each trace at 1,000/500 references: a scale <= 0
    # must be refused, not run as that floor under its own cache key.
    def generate(*args, **kw):
        raise AssertionError("a trace was generated despite the bad scale")

    monkeypatch.setattr(mixes, "generate_trace", generate)
    match = f"scale must be positive and finite, got {scale}"
    with pytest.raises(ValueError, match=match):
        build_mix("C1", scale=scale)
    with pytest.raises(ValueError, match=match):
        MixSpec("C1", scale=scale)
    with pytest.raises(ValueError, match=match):
        api.simulate(mix="C1", scale=scale)


#: SHA-256 over every trace of a mix (name, class, base, footprint and
#: the address/write/gap columns) at seed 7, scale 0.02: two Table II
#: mixes, two LLM mixes, and custom specs of one to four CPU workloads.
#: One builder serves all three families, so a change to it that moves
#: any family's traces (and every cached cell keyed on them) fails here.
MIX_DIGESTS = {
    "C1": "06b168486c6aee170b53cd32c1d0f74b6e5f78ff41e433539916fd9c31f92b1d",
    "C5": "fc04d0d0f3d7b7f2a931a1002672b89e1a32f17a692a13eb6c235d0ce1ac1f68",
    "kvcache":
        "280126e47edef87a6ee73c899db06383076ffb020099fb3400525f90e928e48d",
    "kvcache-batch":
        "27732eaba21adbce26b0aa51638b5e6330ec16eb631dd3272f48cdcab62ea306",
    "xz:bert":
        "2289d64caf6b1e56d0604f6ee69aafa357f9c1b78663728d75cee93f3f2dccb7",
    "gcc-xz:lud":
        "0668b6130e6789afc3cde68583070697c9574bccc4975c9f032ca4403d59e672",
    "gcc-mcf-lbm:backprop":
        "586777fafca7492308773f2fae14d160dc3dc9406e16bc13d78fa21a00f3b6ca",
    "gcc-mcf-lbm-roms:backprop":
        "8e9172d59d15d3b2d88b94e49aadb04bf23f889a6d215c2edb9fc9994a6511cf",
}


@pytest.mark.parametrize("name", MIX_DIGESTS)
def test_mix_traces_match_their_pinned_digest(name):
    h = hashlib.sha256()
    for tr in build_mix(name, seed=7, scale=0.02).traces:
        h.update(f"{tr.name}|{tr.klass}|{tr.base}|{tr.footprint}|".encode())
        for column in (tr.addrs, tr.writes, tr.gaps):
            h.update(column.tobytes())
    assert h.hexdigest() == MIX_DIGESTS[name]


@pytest.mark.parametrize("name", ["C1", "kvcache"])
def test_trace_columns_hold_each_distinct_value_once(name):
    cfg = SystemConfig()
    block_bytes, num_sets = cfg.hybrid.block, cfg.num_sets
    for tr in build_mix(name, seed=7, scale=0.02).traces:
        cols = tr.columns(block_bytes, num_sets)
        assert tr.columns(block_bytes, num_sets) is cols
        blocks = tr.addrs // block_bytes
        decoded = {"addr_list": tr.addrs, "write_list": tr.writes,
                   "gap_list": tr.gaps, "block_list": blocks,
                   "set_list": blocks % num_sets}
        for attr, column in decoded.items():
            values = getattr(cols, attr)
            want = column.tolist()
            assert [(type(v), v) for v in values] == \
                [(type(v), v) for v in want], attr
            assert len({id(v) for v in values}) == len(set(values)), attr


@settings(max_examples=20, deadline=None)
@given(stream=st.floats(0, 1), hot=st.floats(0, 1), seed=st.integers(0, 999))
def test_any_mixture_generates_valid_trace(stream, hot, seed):
    total = stream + hot
    if total > 1:
        stream, hot = stream / total, hot / total
    spec = TraceSpec("x", "cpu", footprint=256 * KB, stream_frac=stream,
                     hot_frac=hot, hot_set_frac=0.2, write_frac=0.3,
                     gap_mean=2.0)
    tr = generate_trace(spec, 500, seed=seed)
    assert len(tr) == 500
    assert tr.addrs.min() >= 0
    assert tr.addrs.max() < spec.footprint
