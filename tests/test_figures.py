"""Smoke tests for the per-figure experiment drivers (tiny scales)."""

import pytest

from repro.experiments import figures as F
from repro.experiments.sweep import SweepEngine

TINY = 0.06  # ~900 CPU refs / 9k GPU refs per mix: shapes only, fast


def test_table2_rows():
    rows = F.table2_workloads(cpu_refs=800, gpu_refs=2000)
    assert len(rows) == 12
    assert {r["mix"] for r in rows} == {f"C{i}" for i in range(1, 13)}


def test_fig2_slowdowns_driver():
    rows = F.fig2_slowdowns(mixes=("C1",), scale=TINY)
    assert rows[0]["mix"] == "C1"
    assert rows[0]["slowdown_cpu"] > 0.5


def test_fig2_sensitivity_driver():
    out = F.fig2_sensitivity("C1", scale=TINY)
    assert {"fast_bw", "fast_cap", "slow_bw"} == set(out)
    assert out["fast_bw"][0]["perf_cpu"] == pytest.approx(1.0)
    assert len(out["fast_cap"]) == 4


def test_fig5_overall_driver():
    res = F.fig5_overall(mixes=("C1",), scale=TINY,
                         designs=("waypart", "hydrogen-dp"))
    assert set(res) == {"baseline", "waypart", "hydrogen-dp"}
    assert res["baseline"]["C1"].weighted_speedup == pytest.approx(1.0)
    summary = F.fig5_summary(res)
    assert len(summary) == 3


def test_fig5_hbm3_variant():
    res = F.fig5_overall(mixes=("C1",), fast="hbm3", scale=TINY,
                         designs=("waypart",))
    assert res["waypart"]["C1"].weighted_speedup > 0


def test_fig6_energy_driver():
    rows = F.fig6_energy(mixes=("C1",), scale=TINY)
    assert rows[0]["hashcache"] == pytest.approx(1.0)
    assert rows[0]["hydrogen"] > 0


def test_fig6_energy_recalls_cached_cells(tmp_path):
    first = F.fig6_energy(mixes=("C1",), scale=TINY,
                          runner=SweepEngine(cache=tmp_path))
    again = SweepEngine(cache=tmp_path)
    assert F.fig6_energy(mixes=("C1",), scale=TINY, runner=again) == first
    assert again.report.simulated == 0 and again.report.cache_hits == 3


def test_fig7_overheads_driver():
    out = F.fig7_overheads(mixes=("C1",), scale=TINY)
    swap = {r["variant"] for r in out["swap"]}
    assert swap == {"ideal", "hydrogen", "prob", "noswap"}
    assert len(out["reconfig"]) == 2


def test_fig8_search_driver():
    out = F.fig8_search("C5", scale=TINY, caps=(2, 3), bws=(1,),
                        toks=(0.15,))
    assert len(out["grid"]) == 2
    assert out["best_static"] >= out["median_static"]
    assert out["online_speedup"] > 0


def test_fig9_epochs_driver():
    out = F.fig9_epochs(mixes=("C1",), scale=TINY,
                        epoch_lengths=(5_000.0,),
                        phase_lengths=(200_000.0,))
    assert out["epoch"][0]["epoch_cycles"] == 5_000.0
    assert out["phase"][0]["geomean_speedup"] > 0


def test_fig10_driver():
    out = F.fig10_weights_cores("C6", scale=TINY, weight_ratios=(1, 12),
                                core_counts=(4,))
    assert len(out["weights"]) == 2
    assert out["cores"][0]["cpu_cores"] == 4


def test_fig11_driver():
    rows = F.fig11_geometry(mixes=("C1",), scale=TINY, assocs=(4,),
                            blocks=(256,))
    assert rows[0]["assoc"] == 4 and rows[0]["block"] == 256
    assert rows[0]["hydrogen"] > 0
