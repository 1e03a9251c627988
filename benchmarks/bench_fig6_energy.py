"""Fig. 6: memory energy comparison, normalized to HAShCache."""

from conftest import BENCH_SCALE, SEED, run_once

from repro.experiments.figures import fig6_energy
from repro.experiments.report import format_table
from repro.experiments.runner import geomean


def test_fig6_energy(benchmark, sweep_runner):
    rows = run_once(benchmark, fig6_energy, scale=BENCH_SCALE, seed=SEED,
                    runner=sweep_runner)

    print("\nFig. 6: memory energy normalized to HAShCache:")
    print(format_table(
        ["mix", "hashcache", "profess", "hydrogen"],
        [[r["mix"], r["hashcache"], r["profess"], r["hydrogen"]]
         for r in rows]))
    gm_h = geomean([r["hydrogen"] for r in rows])
    gm_p = geomean([r["profess"] for r in rows])
    print(f"geomean: hydrogen {gm_h:.3f}  profess {gm_p:.3f} "
          f"(paper: Hydrogen ~0.69x HAShCache)")

    assert all(r["hashcache"] == 1.0 for r in rows)
    # Hydrogen saves memory energy vs HAShCache on average.
    assert gm_h < 1.0
