"""Tests for the parallel, cached experiment sweep engine."""

import pickle

import pytest

from repro.config import default_system
from repro.experiments.cache import SweepCache, resolve_cache, stable_key
from repro.experiments.designs import make_policy
from repro.experiments.runner import compare_on_mix, corun_metrics
from repro.experiments.sweep import (MixSpec, SweepEngine, SweepJob,
                                     corun_grid, resolve_workers, sweep_grid)
from repro.traces.mixes import build_mix

CFG = default_system()

# Small enough to keep the grid tests fast; large enough to be non-trivial.
TINY = dict(cpu_refs=1200, gpu_refs=6000)


def spec(name="C1", **kw):
    return MixSpec(name, **{"seed": 4, **TINY, **kw})


def job(design="baseline", mix=None, cfg=CFG, **kw):
    return SweepJob(mix if mix is not None else spec(), design, cfg, **kw)


# ---------------------------------------------------------------- specs/jobs

def test_mixspec_builds_solo_variants():
    full = spec().build()
    solo = spec(solo="gpu").build()
    assert full.cpu_traces and full.gpu_traces
    assert not solo.cpu_traces and solo.gpu_traces
    assert solo.name == "C1-gpu"
    assert spec(solo="gpu").run_name == "C1-gpu"


def test_jobs_are_picklable_and_hashable():
    j = job("hydrogen")
    assert pickle.loads(pickle.dumps(j)) == j
    assert len({j, job("hydrogen"), job("baseline")}) == 2


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("REPRO_SWEEP_JOBS", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1  # all cores
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "5")
    assert resolve_workers(None) == 5
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "two")
    with pytest.raises(ValueError, match="REPRO_SWEEP_JOBS"):
        resolve_workers(None)


def test_resolve_workers_edge_cases(monkeypatch):
    import os
    cores = os.cpu_count() or 1
    assert resolve_workers(-2) == cores       # negative means "all cores"
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "0")
    assert resolve_workers(None) == cores     # env zero too
    monkeypatch.setenv("REPRO_SWEEP_JOBS", "")
    assert resolve_workers(None) == 1         # empty env -> default serial


# ------------------------------------------------------------------- caching

def test_cache_roundtrip_and_counters(tmp_path):
    cache = SweepCache(tmp_path)
    key = stable_key({"x": 1})
    assert cache.get(key) is None and cache.misses == 1
    cache.put(key, {"value": 42})
    assert key in cache and len(cache) == 1
    assert cache.get(key) == {"value": 42} and cache.hits == 1
    assert cache.clear() == 1 and len(cache) == 0


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = SweepCache(tmp_path)
    key = stable_key({"x": 2})
    cache.put(key, "fine")
    cache.path_for(key).write_bytes(b"not a pickle")
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()  # dropped, not left to rot


def test_resolve_cache_forms(tmp_path):
    assert resolve_cache(None) is None and resolve_cache(False) is None
    c = SweepCache(tmp_path)
    assert resolve_cache(c) is c
    assert resolve_cache(str(tmp_path)).root == tmp_path
    assert resolve_cache(tmp_path).root == tmp_path  # Path form


def test_resolve_cache_true_uses_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "root"))
    assert resolve_cache(True).root == tmp_path / "root"


def test_cache_truncated_entry_is_quarantined(tmp_path):
    cache = SweepCache(tmp_path)
    key = stable_key({"x": 3})
    cache.put(key, {"value": list(range(100))})
    path = cache.path_for(key)
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    assert cache.get(key) is None and cache.misses == 1
    assert not path.exists()  # quarantined, will re-simulate cleanly


def test_cache_stale_class_entry_is_quarantined(tmp_path):
    cache = SweepCache(tmp_path)
    key = stable_key({"x": 4})
    cache.put(key, "placeholder")
    # A pickle referencing a class that no longer importable (renamed
    # module, removed attribute) must read as a miss, not an error.
    cache.path_for(key).write_bytes(b"cno_such_module\nGone\n.")
    assert cache.get(key) is None
    assert not cache.path_for(key).exists()


def test_cache_quarantine_survives_unlink_race(tmp_path, monkeypatch):
    from pathlib import Path
    cache = SweepCache(tmp_path)
    key = stable_key({"x": 5})
    cache.put(key, "fine")
    cache.path_for(key).write_bytes(b"not a pickle")
    # Another process deleting (or holding) the entry first must not
    # abort the sweep: the corrupt read is still just a miss.
    monkeypatch.setattr(Path, "unlink",
                        lambda self, **kw: (_ for _ in ()).throw(
                            OSError("unlink race")))
    assert cache.get(key) is None and cache.misses == 1


def test_cache_put_failure_disables_cache(tmp_path, monkeypatch):
    cache = SweepCache(tmp_path)

    def no_space(*a, **kw):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("repro.experiments.cache.tempfile.mkstemp",
                        no_space)
    with pytest.warns(RuntimeWarning, match="disabling the cache"):
        assert cache.put(stable_key({"x": 6}), "v") is False
    assert cache.disabled
    # Disabled means inert, not broken: further puts/gets are quiet no-ops.
    assert cache.put(stable_key({"x": 7}), "v") is False
    assert cache.get(stable_key({"x": 7})) is None


def test_sweep_survives_cache_write_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(
        "repro.experiments.cache.tempfile.mkstemp",
        lambda *a, **kw: (_ for _ in ()).throw(OSError(28, "full")))
    engine = SweepEngine(cache=SweepCache(tmp_path))
    with pytest.warns(RuntimeWarning, match="disabling the cache"):
        out = engine.run([job()])
    assert len(out) == 1 and engine.stats.completed == 1
    assert engine.cache.disabled and len(SweepCache(tmp_path)) == 0


def test_stable_key_is_order_independent_and_sensitive():
    assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})
    assert stable_key({"a": 1}) != stable_key({"a": 2})


def test_engine_cache_hit_on_second_run(tmp_path):
    jobs = [job("baseline"), job("waypart")]
    first = SweepEngine(cache=SweepCache(tmp_path))
    r1 = first.run(jobs)
    assert first.stats.cache_misses == 2 and first.stats.simulated == 2

    second = SweepEngine(cache=SweepCache(tmp_path))
    r2 = second.run(jobs)
    assert second.stats.cache_hits == 2 and second.stats.simulated == 0
    assert second.stats.hit_rate == 1.0
    assert r1 == r2  # recalled results identical to freshly simulated


def test_cache_invalidated_by_config_change(tmp_path):
    cache = SweepCache(tmp_path)
    engine = SweepEngine(cache=cache)
    engine.run([job()])
    from dataclasses import replace
    cfg2 = replace(CFG, hybrid=replace(CFG.hybrid, assoc=8))
    engine.run([job(cfg=cfg2)])
    assert engine.stats.cache_hits == 0
    assert engine.stats.simulated == 2  # different config -> different key


def test_cache_invalidated_by_mix_and_kwargs(tmp_path):
    engine = SweepEngine(cache=SweepCache(tmp_path))
    engine.run([job(mix=spec(seed=4))])
    engine.run([job(mix=spec(seed=5))])
    engine.run([job(mix=spec(seed=4), sim_kw=(("warmup_cpu", 0.1),))])
    assert engine.stats.cache_hits == 0 and engine.stats.simulated == 3


def test_raw_mix_cache_key_is_content_addressed(tmp_path):
    # Two independently built but identical mixes must share a cache entry.
    engine = SweepEngine(cache=SweepCache(tmp_path))
    engine.run([job(mix=build_mix("C1", seed=4, **TINY))])
    engine.run([job(mix=build_mix("C1", seed=4, **TINY))])
    assert engine.stats.cache_hits == 1
    engine.run([job(mix=build_mix("C1", seed=5, **TINY))])
    assert engine.stats.simulated == 2  # changed traces -> new key


# ------------------------------------------------------------------- engine

def test_dedup_shares_baseline():
    engine = SweepEngine()
    jobs = [job("baseline"), job("waypart"), job("baseline")]
    out = engine.run(jobs)
    assert engine.stats.submitted == 3
    assert engine.stats.unique == 2
    assert engine.stats.simulated == 2
    assert len(out) == 2


def test_parallel_results_bit_identical_to_serial():
    jobs = [job(d) for d in ("baseline", "waypart", "hydrogen")]
    serial = SweepEngine(workers=1).run(jobs)
    parallel = SweepEngine(workers=2).run(jobs)
    assert serial == parallel  # SimResult dataclass equality, field by field


def test_results_in_submission_order():
    jobs = [job(d) for d in ("hydrogen", "baseline", "waypart")]
    out = SweepEngine(workers=2).run(jobs)
    assert [j.design for j in out] == ["hydrogen", "baseline", "waypart"]


def test_stats_reporting():
    engine = SweepEngine()
    engine.run([job("baseline"), job("waypart")])
    assert engine.stats.wall_total > 0
    assert set(engine.stats.job_walls) == {"baseline@C1", "waypart@C1"}
    assert len(engine.stats.slowest(1)) == 1


def test_progress_callback_emits_lines():
    lines = []
    SweepEngine(progress=lines.append).run([job()])
    assert any("queued" in ln for ln in lines)
    assert any("baseline@C1" in ln for ln in lines)


# ------------------------------------------------------------ sweep drivers

def test_sweep_compare_layout_and_baseline_normalization():
    out = sweep_grid([spec()], ("waypart",), CFG)
    assert list(out) == ["baseline", "waypart"]
    assert out["baseline"]["C1"].weighted_speedup == pytest.approx(1.0)
    assert out["waypart"]["C1"].result.policy == "waypart"


def test_sweep_compare_matches_compare_designs():
    mix = build_mix("C1", seed=4, **TINY)
    single = compare_on_mix(mix, ("waypart",), CFG)
    swept = sweep_grid([spec()], ("waypart",), CFG)
    for d in ("baseline", "waypart"):
        assert single[d].weighted_speedup == pytest.approx(
            swept[d]["C1"].weighted_speedup)


def test_sweep_corun_matches_serial_corun():
    mix = build_mix("C1", seed=4, **TINY)
    # A policy factory takes corun_metrics' serial in-process path.
    serial = corun_metrics(mix, CFG, lambda: make_policy("baseline"))
    swept = corun_grid([spec()], CFG)["C1"]
    assert swept["slowdown_cpu"] == pytest.approx(serial["slowdown_cpu"])
    assert swept["slowdown_gpu"] == pytest.approx(serial["slowdown_gpu"])


def test_compare_designs_uses_cache(tmp_path):
    mix = build_mix("C1", seed=4, **TINY)
    cache = SweepCache(tmp_path)
    a = compare_on_mix(mix, ("waypart",), CFG, cache=cache)
    b = compare_on_mix(mix, ("waypart",), CFG, cache=cache)
    assert cache.hits == 2 and cache.stores == 2
    assert a["waypart"].weighted_speedup == pytest.approx(
        b["waypart"].weighted_speedup)


def test_trace_dir_excluded_from_cache_key(tmp_path):
    """Telemetry never changes results, so tracing must not change the
    cache key: traced and untraced runs share cached cells byte-for-byte."""
    plain = job("waypart")
    traced = job("waypart", trace_dir=str(tmp_path / "traces"))
    assert stable_key(plain.cache_payload()) == \
        stable_key(traced.cache_payload())


def test_traced_job_results_match_untraced(tmp_path):
    traced = job("waypart", trace_dir=str(tmp_path))
    plain = job("waypart")
    assert traced.run().stats == plain.run().stats
    assert (tmp_path / f"{traced.label}.jsonl").exists()
