"""Figure 6: Combo with the large search space — A3C search trajectory
and utilization at the 256-node reference configuration.

Shape claims reproduced: A3C finds higher rewards faster than A2C/RDM;
utilization tracks RDM early and decays gradually (cache effect) without
the full convergence-stop seen on the small space.
"""

import numpy as np

from harness import fig6_runs, print_trajectories, print_utilizations


def bench_fig06(benchmark):
    results = benchmark.pedantic(fig6_runs, rounds=1, iterations=1)
    print_trajectories("Fig 6a (combo, large space)", results)
    print_utilizations("Fig 6b (combo, large space)", results)

    def late_mean(res):
        recs = sorted(res.records, key=lambda r: r.time)
        return float(np.mean([r.reward for r in recs[len(recs) // 2:]]))

    assert late_mean(results["a3c"]) > late_mean(results["rdm"])
    # the large space does not converge within the wall clock
    assert not results["a3c"].converged
