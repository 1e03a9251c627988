"""Fig. 10: IPC weight sensitivity (C6) and CPU core-count scaling."""

from conftest import BENCH_SCALE, SEED, run_once

from repro.experiments.figures import fig10_weights_cores
from repro.experiments.report import format_table


def test_fig10_weights_and_cores(benchmark, sweep_runner):
    out = run_once(benchmark, fig10_weights_cores, "C6", scale=BENCH_SCALE,
                   seed=SEED, runner=sweep_runner)

    print("\nFig. 10(a): CPU:GPU IPC weight sweep on C6 "
          "(slowdown vs running alone; lower is better):")
    print(format_table(["weight ratio", "CPU slowdown", "GPU slowdown"],
                       [[r["weight_ratio"], r["slowdown_cpu"],
                         r["slowdown_gpu"]] for r in out["weights"]]))
    print("\nFig. 10(b): CPU core-count scaling (weighted speedup):")
    print(format_table(["CPU cores", "hydrogen", "profess"],
                       [[r["cpu_cores"], r["hydrogen_speedup"],
                         r["profess_speedup"]] for r in out["cores"]]))

    w = out["weights"]
    # Higher CPU weight lowers (or holds) the CPU slowdown; the GPU pays.
    assert w[-1]["slowdown_cpu"] <= w[0]["slowdown_cpu"] * 1.05
    assert w[-1]["slowdown_gpu"] >= w[0]["slowdown_gpu"] * 0.9
    assert len(out["cores"]) == 3
    assert all(r["hydrogen_speedup"] > 0.8 for r in out["cores"])
