"""Figure 11: A3C reward trajectories on Combo (large space, 256 nodes)
at 10/20/30/40% training-data fractions.

Shape claims reproduced: at 10–30% the reward rises quickly; at 40% the
early trajectory is depressed (many architectures exceed the 10-minute
timeout and are penalized toward −1) and recovery is slow — the agent
must first learn to generate architectures that finish within the
timeout.
"""

import numpy as np

from harness import fig11_runs, print_trajectories


def bench_fig11(benchmark):
    def run_all():
        return {f"{int(f * 100)}%": res
                for f, res in fig11_runs().items()}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print_trajectories("Fig 11 (combo large, fidelity)", results)

    def early_mean(res):
        recs = sorted(res.records, key=lambda r: r.time)
        head = recs[:max(1, len(recs) // 5)]
        return float(np.mean([r.reward for r in head]))

    early = {name: early_mean(res) for name, res in results.items()}
    print("\nearly-phase mean rewards:",
          {k: round(v, 3) for k, v in early.items()})
    # 40% data: timeouts depress the early rewards vs 10%
    assert early["40%"] < early["10%"] - 0.1, early

    timeout_frac = {
        name: float(np.mean([r.timed_out for r in res.records]))
        for name, res in results.items()}
    print("timeout fractions:",
          {k: round(v, 2) for k, v in timeout_frac.items()})
    assert timeout_frac["40%"] > timeout_frac["10%"], timeout_frac
