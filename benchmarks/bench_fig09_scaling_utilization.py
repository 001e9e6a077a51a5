"""Figure 9: A3C utilization on Combo (large space) at 256/512/1,024
nodes, comparing worker scaling against agent scaling.

Shape claims reproduced: agent scaling (512-a, 1024-a) sustains
utilization close to the 256-node reference, while worker scaling
(512-w, 1024-w) loses utilization because each agent's batch-synchronous
evaluation idles more workers per round.
"""

from harness import fig9_runs, print_utilizations


def bench_fig09(benchmark):
    results = benchmark.pedantic(fig9_runs, rounds=1, iterations=1)
    print_utilizations("Fig 9 (combo large, scaling)", results)

    means = {name: res.cluster.mean_utilization(max(res.end_time, 1e-9))
             for name, res in results.items()}
    print("\nmean utilizations:", {k: round(v, 3) for k, v in means.items()})

    # agent scaling holds utilization better than worker scaling
    assert means["512-a"] >= means["512-w"] - 0.02, means
    assert means["1024-a"] >= means["1024-w"] - 0.02, means
    # worker scaling degrades with node count
    assert means["1024-w"] <= means["256"] + 0.02, means
