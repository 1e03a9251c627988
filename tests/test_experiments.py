"""Tests for the experiment harness (designs, runner, report)."""

import os

import pytest

from repro.config import default_system
from repro.experiments.designs import (ALL_DESIGNS, FIG5_DESIGNS,
                                       design_config, make_policy)
from repro.experiments.report import (PERF_HEADERS, format_table,
                                      perf_csv_rows, to_csv)
from repro.experiments.runner import (compare_on_mix, corun_metrics,
                                      env_scale, geomean, run_design,
                                      weighted_speedup)
from repro.traces.mixes import build_mix

CFG = default_system()


def tiny():
    return build_mix("C1", cpu_refs=1200, gpu_refs=8000, seed=4)


def test_registry_complete():
    assert set(FIG5_DESIGNS) < set(ALL_DESIGNS)
    for name in ALL_DESIGNS:
        pol = make_policy(name)
        assert pol.name == name
    with pytest.raises(KeyError):
        make_policy("magic")


def test_fresh_policy_instances():
    assert make_policy("hydrogen") is not make_policy("hydrogen")


def test_design_config_hashcache_geometry():
    cfg = design_config("hashcache", CFG)
    assert cfg.hybrid.assoc == 1
    cfg2 = design_config("hashcache", CFG, native_geometry=False)
    assert cfg2.hybrid.assoc == CFG.hybrid.assoc
    assert design_config("baseline", CFG) is CFG


def test_weighted_speedup_math():
    base = run_design("baseline", tiny(), CFG)
    res = run_design("baseline", tiny(), CFG)
    combo = weighted_speedup(res, base, 12.0, 1.0)
    assert combo.weighted_speedup == pytest.approx(1.0)
    assert combo.speedup_cpu == pytest.approx(1.0)


def test_compare_designs_normalizes_to_baseline():
    out = compare_on_mix(tiny(), ("waypart",), CFG)
    assert out["baseline"].weighted_speedup == pytest.approx(1.0)
    assert "waypart" in out
    assert out["waypart"].result.policy == "waypart"


def test_corun_slowdowns_positive():
    sd = corun_metrics(tiny(), CFG)
    assert sd["slowdown_cpu"] > 0.8
    assert sd["slowdown_gpu"] > 0.8


def test_corun_slowdowns_gpu_only_mix():
    """Regression: a mix with no CPU traces used to raise on the missing
    solo run instead of reporting NaN for the absent class."""
    import math

    from repro.traces.mixes import gpu_only

    sd = corun_metrics(gpu_only(tiny()), CFG)
    assert math.isnan(sd["slowdown_cpu"])
    assert sd["slowdown_gpu"] == pytest.approx(1.0, abs=0.05)
    assert sd["corun_cycles_cpu"] is None
    assert sd["corun_cycles_gpu"] > 0


def test_corun_slowdowns_cpu_only_mix():
    import math

    from repro.traces.mixes import cpu_only

    sd = corun_metrics(cpu_only(tiny()), CFG)
    assert math.isnan(sd["slowdown_gpu"])
    assert sd["slowdown_cpu"] == pytest.approx(1.0, abs=0.05)


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0
    assert geomean([1.0, 0.0]) == 1.0  # zeros ignored


def test_env_scale(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert env_scale(0.7) == 0.7
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    assert env_scale() == 0.25


def test_env_scale_malformed(monkeypatch):
    """Regression: a typo'd $REPRO_SCALE used to surface as a bare
    float() ValueError with no mention of the variable."""
    monkeypatch.setenv("REPRO_SCALE", "banana")
    with pytest.raises(ValueError, match=r"REPRO_SCALE.*banana"):
        env_scale()


@pytest.mark.parametrize("bad", ["0", "-1", "-0.5", "nan", "inf"])
def test_env_scale_rejects_non_positive(monkeypatch, bad):
    monkeypatch.setenv("REPRO_SCALE", bad)
    with pytest.raises(ValueError, match="REPRO_SCALE"):
        env_scale()


def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [["x", 1.23456], ["yy", 2.0]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "1.235" in text


def test_perf_csv_roundtrip(tmp_path):
    mix = tiny()
    base = run_design("baseline", mix, CFG)
    combo = weighted_speedup(base, base, 12.0, 1.0)
    rows = perf_csv_rows({"baseline": {"C1": combo}})
    path = str(tmp_path / "perf.csv")
    text = to_csv(PERF_HEADERS, rows, path)
    assert os.path.exists(path)
    assert text.splitlines()[0] == ",".join(PERF_HEADERS)
    assert "baseline,C1" in text
