"""Analytics walkthrough: logs, monitoring, and replication statistics.

Runs a small simulated search with its write-ahead journal on, rebuilds
its records from the journal, and demonstrates every analytics surface:
trajectory extraction, top-k, cache statistics, Balsam-style job-table
monitoring, and replication quantile bands.

Run:  python examples/analytics_walkthrough.py
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.analytics import (best_so_far_trajectory, cache_hit_fraction,
                             quantile_bands, rolling_mean_trajectory,
                             time_to_reward, top_k_architectures,
                             unique_architectures)
from repro.hpc import (NodeAllocation, TrainingCostModel, job_table_stats,
                       throughput_trace, utilization_from_jobs)
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig
from repro.search.journal import JOURNAL_NAME, read_journal, read_records
from repro.verify.fingerprint import record_digest


def make_reward(seed=7):
    return SurrogateReward(combo_small(), COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(),
                           epochs=1, train_fraction=0.1, timeout=600.0,
                           seed=seed)


def main() -> None:
    space = combo_small()
    journal_dir = Path(tempfile.mkdtemp(prefix="walkthrough-"))
    cfg = SearchConfig(method="a3c", allocation=NodeAllocation(48, 5, 4),
                       wall_time=90 * 60.0, seed=11,
                       journal_dir=str(journal_dir))
    search = NasSearch(space, make_reward(), cfg)
    result = search.run()

    # --- trajectory analytics -----------------------------------------
    best = best_so_far_trajectory(result.records)
    rolling = rolling_mean_trajectory(result.records, window=50)
    t4 = time_to_reward(result.records, 0.4)
    print(f"{result.num_evaluations} evaluations, "
          f"{unique_architectures(result.records)} unique, "
          f"cache hits {cache_hit_fraction(result.records):.0%}")
    print(f"best-so-far ends at {best[-1, 1]:.3f}; rolling mean ends at "
          f"{rolling[-1, 1]:.3f}; reward 0.4 reached at "
          f"{'%.0f min' % t4 if t4 else 'n/a'}")
    print("top 3 architectures:")
    for rec in top_k_architectures(result.records, 3):
        print(f"  {rec.reward:+.3f}  {rec.params:>10,} params  {rec.arch}")

    # --- Balsam-style monitoring (from the job table) -------------------
    stats = job_table_stats(search.service)
    print(f"\njob table: {stats.num_finished}/{stats.num_jobs} finished, "
          f"mean queue wait {stats.mean_queue_wait:.1f}s, "
          f"mean run {stats.mean_run_time:.0f}s, "
          f"{stats.total_node_seconds / 3600:.1f} node-hours")
    trace = utilization_from_jobs(search.service, result.end_time,
                                  bin_width=15 * 60.0)
    print("utilization per 15 min:",
          " ".join(f"{u:.2f}" for _, u in trace))
    tput = throughput_trace(search.service, result.end_time,
                            bin_width=15 * 60.0)
    print("throughput (evals/min):",
          " ".join(f"{r * 60:.1f}" for _, r in tput))

    # --- persistence: the journal is the run's record log ----------------
    loaded, meta = read_records(read_journal(journal_dir / JOURNAL_NAME))
    same = record_digest(loaded) == record_digest(result.records)
    print(f"\njournal rebuild: {len(loaded)} records, same multiset as "
          f"the run: {same}, run={meta}")
    shutil.rmtree(journal_dir)

    # --- replication quantiles (Fig 13 style) -----------------------------
    reps = []
    for seed in range(3):
        cfg = SearchConfig(method="a3c", allocation=NodeAllocation(48, 5, 4),
                           wall_time=90 * 60.0, seed=200 + seed)
        reps.append(NasSearch(space, make_reward(), cfg).run().records)
    grid = np.array([30.0, 60.0, 85.0])
    bands = quantile_bands(reps, grid, quantiles=(0.1, 0.5, 0.9), window=50)
    print("\nreplication quantiles (minutes: q10/q50/q90):")
    for t, row in zip(grid, bands):
        print(f"  {t:3.0f}: {row[0]:.3f} / {row[1]:.3f} / {row[2]:.3f}")


if __name__ == "__main__":
    main()
