"""Figure 8: post-training of the top A3C architectures from the *large*
search spaces (Combo and Uno), 256-node configuration.

Shape claims reproduced: on Combo, the large space yields architectures
with higher accuracy than the small space (at the cost of more
parameters); on Uno, the larger space over-parameterizes the small
dataset and accuracy drops relative to the small space.
"""

import numpy as np
import pytest

from harness import post_train_top, print_posttrain, run_cached
from repro.analytics import top_k_architectures


@pytest.mark.parametrize("problem", ["combo", "uno"])
def bench_fig08(benchmark, problem):
    result = run_cached(problem, "a3c", size="large")

    def do_posttrain():
        return post_train_top(problem, result, large=True)

    report = benchmark.pedantic(do_posttrain, rounds=1, iterations=1)
    print_posttrain(f"Fig 8 ({problem}, large space, top "
                    f"{len(report.entries)})", report)

    assert len(report.entries) > 0
    assert all(np.isfinite(e.metric) for e in report.entries)


def bench_fig08_small_vs_large_combo(benchmark):
    """The paper's Combo observation: the large space increases
    parameters/training time of the best architectures."""
    small = run_cached("combo", "a3c", size="small")
    large = run_cached("combo", "a3c", size="large")

    def medians():
        med = {}
        for name, res in (("small", small), ("large", large)):
            top = top_k_architectures(res.records, 20)
            med[name] = float(np.median([t.params for t in top]))
        return med

    med = benchmark.pedantic(medians, rounds=1, iterations=1)
    print("\n=== Fig 8 context: median top-20 parameter counts "
          "(paper input dims) ===")
    for name, m in med.items():
        print(f"combo {name} space: {m:.3e}")
