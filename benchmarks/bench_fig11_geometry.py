"""Fig. 11: associativity (A) x block size (B) sweep."""

from conftest import BENCH_SCALE, SEED, run_once

from repro.experiments.figures import fig11_geometry
from repro.experiments.report import format_table


def test_fig11_assoc_and_block_size(benchmark, sweep_runner):
    rows = run_once(benchmark, fig11_geometry, scale=BENCH_SCALE, seed=SEED,
                    runner=sweep_runner)

    print("\nFig. 11: geometry sweep (weighted speedup vs the baseline of "
          "the same geometry):")
    print(format_table(
        ["assoc", "block B", "hashcache", "profess", "hydrogen"],
        [[r["assoc"], r["block"], r["hashcache"], r["profess"],
          r["hydrogen"]] for r in rows]))

    cells = {(r["assoc"], r["block"]): r for r in rows}
    # Hydrogen shows consistent speedups across geometries (paper: all
    # except A1-B64 where HAShCache's chaining shines).
    wins = sum(1 for r in rows if r["hydrogen"] >= 0.98)
    assert wins >= len(rows) - 2
    # The default geometry (A4-B256) is reproduced and Hydrogen gains there.
    assert cells[(4, 256)]["hydrogen"] > 1.0
