"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but controlled studies of the mechanisms the
paper attributes its results to:

* the agent-local evaluation cache (utilization decay + convergence);
* the A3C staleness window (how many recent updates the PS averages);
* the PPO entropy bonus (exploration vs collapse);
* aging evolution (§7's future-work comparator) vs A3C vs RDM on the
  identical substrate.
"""

import numpy as np

from harness import WALL_MINUTES, allocation, space_for, surrogate_for
from repro.analytics import cache_hit_fraction, unique_architectures
from repro.search import SearchConfig, run_search


def _late_mean(result):
    recs = sorted(result.records, key=lambda r: r.time)
    tail = recs[int(0.7 * len(recs)):]
    return float(np.mean([r.reward for r in tail]))


def bench_ablation_cache(benchmark):
    space = space_for("combo")

    def run_both():
        out = {}
        for use_cache in (True, False):
            cfg = SearchConfig(method="a3c", allocation=allocation(256),
                               wall_time=WALL_MINUTES * 60.0, seed=4,
                               use_cache=use_cache)
            out[use_cache] = run_search(space, surrogate_for("combo"), cfg)
        return out

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print("\n=== ablation: agent-local evaluation cache ===")
    for use_cache, res in results.items():
        print(f"cache={use_cache}: evals={res.num_evaluations} "
              f"unique={unique_architectures(res.records)} "
              f"cache_hits={cache_hit_fraction(res.records):.2f} "
              f"util={res.cluster.mean_utilization(max(res.end_time, 1e-9)):.2f} "
              f"late_mean={_late_mean(res):.3f}")
    # the cache's mechanisms: hits happen, they consume no node time
    # (utilization can only drop), and convergence detection becomes
    # possible — without it, repeats burn nodes and hits are impossible
    assert cache_hit_fraction(results[True].records) > 0.0
    assert cache_hit_fraction(results[False].records) == 0.0
    u_cache = results[True].cluster.mean_utilization(
        max(results[True].end_time, 1e-9))
    u_nocache = results[False].cluster.mean_utilization(
        max(results[False].end_time, 1e-9))
    assert u_cache <= u_nocache + 0.02


def bench_ablation_staleness(benchmark):
    space = space_for("combo")
    alloc = allocation(256)
    windows = (1, max(1, alloc.num_agents // 2), alloc.num_agents)

    def run_all():
        out = {}
        for w in windows:
            cfg = SearchConfig(method="a3c", allocation=alloc,
                               wall_time=WALL_MINUTES * 60.0, seed=4,
                               staleness_window=w)
            out[w] = run_search(space, surrogate_for("combo"), cfg)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n=== ablation: A3C staleness window ===")
    for w, res in results.items():
        print(f"window={w:>3}: late_mean={_late_mean(res):.3f} "
              f"best={res.best().reward:.3f}")
    # every variant still learns (beats the random-policy starting level)
    assert all(_late_mean(res) > 0.15 for res in results.values())


def bench_ablation_entropy(benchmark):
    space = space_for("combo")

    def run_all():
        out = {}
        for ent in (0.0, 0.002, 0.02):
            cfg = SearchConfig(method="a3c", allocation=allocation(256),
                               wall_time=WALL_MINUTES * 60.0, seed=4,
                               entropy_coef=ent)
            out[ent] = run_search(space, surrogate_for("combo"), cfg)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n=== ablation: PPO entropy bonus ===")
    for ent, res in results.items():
        print(f"entropy={ent:<6}: late_mean={_late_mean(res):.3f} "
              f"unique={unique_architectures(res.records)} "
              f"cache={cache_hit_fraction(res.records):.2f}")
    # stronger entropy keeps exploration higher (more unique archs)
    assert unique_architectures(results[0.02].records) >= \
        unique_architectures(results[0.0].records)


def bench_ablation_multi_parameter_server(benchmark):
    """§7 future work: "developing multiparameter servers to improve
    scalability".  With a contended single PS (nonzero service time per
    update vector), agent iterations queue behind parameter exchange;
    sharding the vector across independent servers restores throughput.
    k shards receive the same push stream in lockstep, so they run as
    one server with service time s/k.
    """
    space = space_for("combo")
    alloc = allocation(1024, "agents")  # the high-agent-count regime

    def run_all():
        out = {}
        for label, service in (("free", 0.0), ("single-ps", 30.0),
                               ("4-shards", 30.0 / 4)):
            cfg = SearchConfig(method="a3c", allocation=alloc,
                               wall_time=WALL_MINUTES * 60.0, seed=4,
                               ps_service_time=service)
            out[label] = run_search(space, surrogate_for("combo"), cfg)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n=== ablation: multi-parameter-server scalability (§7) ===")
    for label, res in results.items():
        print(f"{label:>10}: evals={res.num_evaluations} "
              f"util={res.cluster.mean_utilization(max(res.end_time, 1e-9)):.2f} "
              f"best={res.best().reward:.3f}")
    assert results["single-ps"].num_evaluations < \
        results["free"].num_evaluations
    assert results["4-shards"].num_evaluations > \
        results["single-ps"].num_evaluations


def bench_ablation_adaptive_fidelity(benchmark):
    """§7 future work: adaptive reward estimation.  A schedule that
    starts at 10% data and ramps to 40% should avoid the fixed-40%
    timeout collapse early while ranking survivors at high fidelity
    late — better early rewards than fixed-40%, more high-fidelity
    evaluations than fixed-10%."""
    from repro.rewards import AdaptiveFidelityReward
    from repro.search import SearchConfig, run_search

    space = space_for("combo", "large")

    def make(kind):
        if kind == "adaptive":
            base = surrogate_for("combo", "large", log_params_opt=7.2)
            return AdaptiveFidelityReward(
                base, [(0, 0.1), (300, 0.2), (900, 0.4)])
        fraction = 0.1 if kind == "fixed-10%" else 0.4
        return surrogate_for("combo", "large", train_fraction=fraction,
                             log_params_opt=7.2)

    def run_all():
        out = {}
        for kind in ("fixed-10%", "fixed-40%", "adaptive"):
            cfg = SearchConfig(method="a3c", allocation=allocation(256),
                               wall_time=WALL_MINUTES * 60.0, seed=4)
            out[kind] = run_search(space, make(kind), cfg)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n=== ablation: adaptive reward-estimation fidelity (§7) ===")
    early = {}
    for kind, res in results.items():
        recs = sorted(res.records, key=lambda r: r.time)
        head = recs[:max(1, len(recs) // 5)]
        early[kind] = float(np.mean([r.reward for r in head]))
        timeouts = float(np.mean([r.timed_out for r in res.records]))
        print(f"{kind:>10}: evals={res.num_evaluations} "
              f"early_mean={early[kind]:+.3f} timeouts={timeouts:.2f} "
              f"best={res.best().reward:.3f}")
    # the schedule avoids the fixed-40% early collapse
    assert early["adaptive"] > early["fixed-40%"] + 0.1, early


def bench_evolution_vs_rl(benchmark):
    space = space_for("combo")

    def run_all():
        out = {}
        for method in ("a3c", "rdm", "evolution"):
            cfg = SearchConfig(method=method, allocation=allocation(256),
                               wall_time=WALL_MINUTES * 60.0, seed=4,
                               population_size=50, tournament_size=10)
            out[method] = run_search(space, surrogate_for("combo"), cfg)
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\n=== comparator: A3C vs aging evolution vs RDM ===")
    for name, res in results.items():
        print(f"{name:>10}: evals={res.num_evaluations} "
              f"best={res.best().reward:.3f} "
              f"late_mean={_late_mean(res):.3f}")
    # both learning methods beat random search
    assert _late_mean(results["a3c"]) > _late_mean(results["rdm"])
    assert _late_mean(results["evolution"]) > _late_mean(results["rdm"])
