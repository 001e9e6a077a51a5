"""Figure 12: post-training of the top A3C architectures per
training-data fraction (10/20/30/40%), Combo large space.

Shape claims reproduced: as the reward-estimation fraction grows, the
timeout increasingly binds, so the best architectures shift toward fewer
trainable parameters (larger P_b/P) and shorter training times.
"""

import numpy as np

from harness import TOP_K, fig11_runs
from repro.analytics import top_k_architectures


def bench_fig12(benchmark):
    runs = fig11_runs()

    def analyze():
        rows = {}
        for f, res in runs.items():
            top = top_k_architectures(res.records, TOP_K)
            params = np.array([t.params for t in top], dtype=float)
            rows[f] = {
                "median_params": float(np.median(params)),
                "p90_params": float(np.percentile(params, 90)),
                "max_params": float(params.max()),
                "big_share": float(np.mean(params > 1.3e7)),
                "best_reward": res.best().reward,
            }
        return rows

    rows = benchmark.pedantic(analyze, rounds=1, iterations=1)
    print("\n=== Fig 12 (combo large): top architectures per fidelity ===")
    print(f"{'fraction':>8} {'median P':>12} {'p90 P':>12} {'max P':>12} "
          f"{'>13M':>6} {'best r':>8}")
    for f, row in rows.items():
        print(f"{f:8.0%} {row['median_params']:12.3e} "
              f"{row['p90_params']:12.3e} {row['max_params']:12.3e} "
              f"{row['big_share']:6.2f} {row['best_reward']:8.3f}")

    # higher fidelity -> the 10-minute timeout clips the upper tail of
    # viable architecture sizes (the paper's mechanism, §5.4); the tail
    # statistics shrink from 10% to 40% training data
    assert rows[0.4]["p90_params"] <= rows[0.1]["p90_params"] * 1.05, rows
    assert rows[0.4]["max_params"] <= rows[0.1]["max_params"] * 1.05, rows
