"""Contract tests for the keyword-only ``repro.api`` facade.

Covers: keyword-only enforcement, engine validation, fast/reference
parity through the facade, the typed ``SweepResult``, and the
API-surface snapshot that fails when ``repro.api.__all__`` drifts from
docs/api.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import api
from repro.traces.mixes import build_mix

REPO = Path(__file__).resolve().parents[1]

TINY = dict(cpu_refs=1200, gpu_refs=6000)


def tiny_mix(name="C1"):
    return build_mix(name, **TINY)


def test_simulate_accepts_name_and_built_mix():
    by_name = api.simulate(mix="C1", scale=0.02)
    by_mix = api.simulate(mix=tiny_mix())
    assert by_name.policy == by_mix.policy == "hydrogen"
    assert by_mix.cycles_cpu > 0 and by_mix.cycles_gpu > 0


def test_facade_is_keyword_only():
    with pytest.raises(TypeError):
        api.simulate("C1")  # positional mix must be rejected
    with pytest.raises(TypeError):
        api.compare(tiny_mix(), ("waypart",))
    with pytest.raises(TypeError):
        api.sweep(["C1"])


def test_unknown_engine_fails_fast():
    with pytest.raises(ValueError, match="unknown engine"):
        api.simulate(mix="C1", engine="warp")
    with pytest.raises(ValueError, match="unknown engine"):
        api.sweep(mixes=["C1"], engine="warp")


def test_fast_and_reference_parity_through_facade():
    mix = tiny_mix()
    fast = api.simulate(mix=mix, design="hydrogen", engine="fast")
    ref = api.simulate(mix=mix, design="hydrogen", engine="reference")
    batch = api.simulate(mix=mix, design="hydrogen", engine="batch")
    assert fast == ref  # full dataclass equality: bit-exact replay
    assert batch == ref


def test_sweep_engine_batch_matches_fast():
    kw = dict(mixes=["C1", "C2"], designs=("waypart", "hydrogen"),
              scale=0.02, jobs=1)
    fast = api.sweep(engine="fast", **kw)
    batch = api.sweep(engine="batch", **kw)
    assert batch.grid == fast.grid  # whole-shard lock-step, bit-exact
    assert batch.ok and fast.ok


def test_sweep_returns_typed_result():
    res = api.sweep(mixes=["C1"], designs=("waypart",), scale=0.02)
    assert isinstance(res, api.SweepResult)
    assert res.designs == ("baseline", "waypart")
    assert res.mixes == ("C1",)
    gm = res.geomean_speedups()
    assert gm["baseline"] == pytest.approx(1.0)
    rows = res.rows()
    assert {r.design for r in rows} == {"baseline", "waypart"}
    assert rows[0].cycles_cpu > 0 and rows[0].weighted_speedup > 0
    assert res.stats.completed == len(rows)


def test_compare_normalizes_to_baseline():
    per = api.compare(mix=tiny_mix(), designs=("waypart",))
    assert per["baseline"].weighted_speedup == pytest.approx(1.0)
    assert per["waypart"].weighted_speedup > 0


def test_corun_reports_unified_keys():
    sd = api.corun(mix=tiny_mix())
    assert {"slowdown_cpu", "slowdown_gpu", "corun_cycles_cpu",
            "corun_cycles_gpu"} == set(sd)
    assert sd["slowdown_cpu"] > 0.8


# The snapshot half: the facade surface is frozen here AND must be
# documented.  Growing the facade means updating this tuple and
# docs/api.md in the same PR.
EXPECTED_API = ("simulate", "sweep", "compare", "corun", "SweepResult",
                "SimResult", "ComboResult", "CellRow", "ENGINES",
                "RetryPolicy", "JobFailure", "SweepReport")


def test_api_surface_snapshot():
    assert tuple(api.__all__) == EXPECTED_API


def test_api_surface_documented():
    doc = (REPO / "docs" / "api.md").read_text()
    missing = [name for name in api.__all__ if f"`{name}`" not in doc]
    assert not missing, f"repro.api exports undocumented in docs/api.md: " \
                        f"{missing}"
