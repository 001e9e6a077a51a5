"""Figure 4: reward over time for A3C, A2C and RDM on the small search
spaces (Combo, Uno, NT3), 256-node reference configuration.

Shape claims reproduced: A3C learns fastest and reaches the highest
rewards; A2C learns but more slowly (synchronous barrier); RDM shows no
learning trend.
"""

import numpy as np
import pytest

from harness import METHODS, fig4_runs, print_trajectories


def _late_mean(result):
    recs = sorted(result.records, key=lambda r: r.time)
    tail = recs[int(0.7 * len(recs)):]
    return float(np.mean([r.reward for r in tail]))


@pytest.mark.parametrize("problem", ["combo", "uno", "nt3"])
def bench_fig04(benchmark, problem):
    results = benchmark.pedantic(fig4_runs, args=(problem,), rounds=1,
                                 iterations=1)
    print_trajectories(f"Fig 4 ({problem}, small space)", results)

    # shape assertions: the RL methods end above random search
    a3c, a2c, rdm = (_late_mean(results[m]) for m in METHODS)
    assert a3c > rdm, f"A3C must out-learn RDM on {problem}"
    assert a2c > rdm, f"A2C must out-learn RDM on {problem}"
    # RDM is flat: early and late means are close
    recs = sorted(results["rdm"].records, key=lambda r: r.time)
    half = len(recs) // 2
    drift = abs(np.mean([r.reward for r in recs[half:]])
                - np.mean([r.reward for r in recs[:half]]))
    # NT3's reward distribution is bimodal (timeouts near -1 vs successes),
    # so allow more sampling noise in its half-to-half mean
    assert drift < (0.2 if problem == "nt3" else 0.1), \
        "random search must show no learning trend"
