"""Figure 13: impact of randomness — 10 replications of A3C on Combo
(small space), 10/50/90% quantiles of the reward trajectory.

Shape claims reproduced: early-run spread across replications is
noticeable; the quantile band narrows as the search progresses and the
replications converge to similar reward levels.
"""

import numpy as np

from harness import N_REPLICATIONS, WALL_MINUTES, fig13_runs
from repro.analytics import band_spread, quantile_bands


def bench_fig13(benchmark):
    reps = benchmark.pedantic(fig13_runs, rounds=1, iterations=1)
    grid = np.linspace(WALL_MINUTES * 0.15, WALL_MINUTES * 0.95, 9)
    bands = quantile_bands([r.records for r in reps], grid,
                           quantiles=(0.1, 0.5, 0.9))
    print(f"\n=== Fig 13: quantiles over {N_REPLICATIONS} replications ===")
    print(f"{'t(min)':>7} {'q10':>7} {'q50':>7} {'q90':>7} {'spread':>7}")
    spread = band_spread(bands)
    for t, row, s in zip(grid, bands, spread):
        print(f"{t:7.0f} {row[0]:7.3f} {row[1]:7.3f} {row[2]:7.3f} {s:7.3f}")

    # the replication band narrows (or stays narrow) as the search runs
    assert spread[-1] <= spread[0] + 0.05, spread
    # medians rise over the run (the search is learning in every rep)
    assert bands[-1, 1] > bands[0, 1], bands
