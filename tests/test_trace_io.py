"""Tests for trace persistence and custom mix specs."""

import numpy as np
import pytest

from repro.traces.base import generate_trace
from repro.traces.cpu import cpu_spec
from repro.traces.io import load_mix, load_trace, save_mix, save_trace
from repro.traces.mixes import build_mix, mix_recipe


def test_trace_roundtrip(tmp_path):
    tr = generate_trace(cpu_spec("mcf"), 2000, seed=1, base=1 << 22)
    path = tmp_path / "mcf.npz"
    save_trace(tr, path)
    tr2 = load_trace(path)
    assert tr2.name == "mcf" and tr2.klass == "cpu"
    assert tr2.footprint == tr.footprint and tr2.base == tr.base
    assert np.array_equal(tr2.addrs, tr.addrs)
    assert np.array_equal(tr2.writes, tr.writes)
    assert np.array_equal(tr2.gaps, tr.gaps)


def test_mix_roundtrip(tmp_path):
    mix = build_mix("C2", cpu_refs=500, gpu_refs=1000)
    paths = save_mix(mix, tmp_path / "traces")
    assert len(paths) == 9
    mix2 = load_mix("C2", tmp_path / "traces")
    assert len(mix2.cpu_traces) == 8 and len(mix2.gpu_traces) == 1
    assert np.array_equal(mix2.gpu_traces[0].addrs, mix.gpu_traces[0].addrs)


def test_load_missing_mix(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_mix("C9", tmp_path)


def test_parse_mix_spec():
    assert mix_recipe("gcc-mcf:backprop") == (("gcc", "mcf"), "backprop",
                                              7919)
    with pytest.raises(KeyError, match="unknown mix 'gcc-mcf'"):
        mix_recipe("gcc-mcf")
    with pytest.raises(KeyError, match="unknown mix ':backprop'"):
        mix_recipe(":backprop")


def test_build_custom_mix_copies():
    mix = build_mix("gcc-mcf:bert", cpu_refs=400, gpu_refs=800)
    # 2 workloads -> 4 copies each to fill 8 cores.
    assert len(mix.cpu_traces) == 8
    assert mix.gpu_traces[0].name == "bert"
    assert mix.name == "gcc-mcf:bert"


def test_build_custom_mix_unknown_workload():
    with pytest.raises(KeyError):
        build_mix("gcc-doom:bert", cpu_refs=100, gpu_refs=100)


def test_custom_mix_regions_disjoint():
    mix = build_mix("lbm-xz-roms:srad", cpu_refs=300, gpu_refs=300)
    ranges = []
    for t in mix.traces:
        lo, hi = int(t.addrs.min()), int(t.addrs.max())
        for plo, phi in ranges:
            assert hi < plo or lo > phi
        ranges.append((lo, hi))
