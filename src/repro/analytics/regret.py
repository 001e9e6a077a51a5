"""Exact-regret analytics against a benchmark table's global optimum.

Only possible in tabular benchmark mode: because a swept
:class:`~repro.bench.table.ArchTable` knows the true optimum of its
(sub-)space, a search trajectory can be scored with *exact* regret —
``optimum − best-so-far`` — instead of the usual "best reward we
happened to see" proxies.  This is the NAS-Bench-201 evaluation
protocol: method comparisons become exact, seeds become cheap, and
"how close to optimal, how fast" replaces "whose curve looks higher".
"""

from __future__ import annotations

import numpy as np

from ..search.base import RewardRecord
from .trajectory import best_so_far_trajectory

__all__ = ["regret_trajectory", "fraction_of_optimum_trajectory",
           "evaluations_to_regret", "regret_summary",
           "labeled_regret_trajectories", "compare_report"]


def regret_trajectory(records: list[RewardRecord],
                      optimum: float) -> np.ndarray:
    """(minutes, exact regret of best-so-far) rows, one per evaluation.

    Regret is clipped at 0: a table replay can never exceed the
    table's own optimum, but mixed analyses (e.g. a live-training run
    scored against a table optimum) might, and negative regret would
    only obscure "reached the optimum"."""
    traj = best_so_far_trajectory(records)
    if len(traj) == 0:
        return np.zeros((0, 2))
    return np.column_stack([traj[:, 0],
                            np.maximum(0.0, optimum - traj[:, 1])])


def fraction_of_optimum_trajectory(records: list[RewardRecord],
                                   optimum: float,
                                   floor: float = -1.0) -> np.ndarray:
    """(minutes, best-so-far as a fraction of optimum) rows.

    Rewards are normalized over ``[floor, optimum]`` (the floor defaults
    to the paper's ``FAILURE_REWARD``), so 0.0 = everything failed and
    1.0 = global optimum found; degenerate tables (optimum == floor)
    report 1.0 throughout.
    """
    traj = best_so_far_trajectory(records)
    if len(traj) == 0:
        return np.zeros((0, 2))
    span = optimum - floor
    if span <= 0:
        frac = np.ones(len(traj))
    else:
        frac = np.clip((traj[:, 1] - floor) / span, 0.0, 1.0)
    return np.column_stack([traj[:, 0], frac])


def evaluations_to_regret(records: list[RewardRecord], optimum: float,
                          threshold: float = 0.0) -> int | None:
    """Evaluations (1-based, in completion order) until exact regret
    first drops to ``threshold`` or below; None if it never does."""
    traj = best_so_far_trajectory(records)
    hit = np.flatnonzero(optimum - traj[:, 1] <= threshold)
    return int(hit[0]) + 1 if len(hit) else None


def regret_summary(records: list[RewardRecord], optimum: float,
                   method: str | None = None) -> dict:
    """Scalar regret metrics of one run against a table optimum.

    ``method`` labels the summary (a ``"method"`` key) so multi-method
    comparisons stay self-describing once summaries are pooled.
    """
    traj = regret_trajectory(records, optimum)
    frac = fraction_of_optimum_trajectory(records, optimum)
    to_opt = evaluations_to_regret(records, optimum)
    out = {
        "evaluations": len(records),
        "final_regret": float(traj[-1, 1]) if len(traj) else None,
        "final_fraction_of_optimum": (float(frac[-1, 1])
                                      if len(frac) else None),
        "found_optimum": to_opt is not None,
        "evaluations_to_optimum": to_opt,
        "evaluations_to_regret_0.05":
            evaluations_to_regret(records, optimum, 0.05),
    }
    if method is not None:
        out["method"] = method
    return out


def labeled_regret_trajectories(runs: dict[str, list[list[RewardRecord]]],
                                optimum: float) -> dict[str, list]:
    """Method-labeled regret trajectories over seeded replays.

    ``runs`` maps a method name to its replicate record lists (the
    ``compare_report`` input); the result maps each method to one
    ``[[minutes, regret], ...]`` trajectory per replicate, ready for a
    one-command a3c-vs-ambs-vs-evolution regret plot.
    """
    return {name: [regret_trajectory(recs, optimum).tolist()
                   for recs in replicates]
            for name, replicates in runs.items()}


def compare_report(runs: dict[str, list[list[RewardRecord]]],
                   optimum: float,
                   trajectories: bool = False) -> dict:
    """Method-comparison report over seeded replays of one table.

    ``runs`` maps a method name to its replicate record lists (one per
    seed).  Per method the report aggregates final regret (mean / min /
    max across replicates) and how many replicates found the exact
    optimum — the ``repro.bench compare`` payload.  With
    ``trajectories`` the report also carries each method's full
    per-replicate regret trajectories
    (:func:`labeled_regret_trajectories`).
    """
    methods = {}
    for name, replicates in runs.items():
        summaries = [regret_summary(recs, optimum, method=name)
                     for recs in replicates]
        finals = [s["final_regret"] for s in summaries
                  if s["final_regret"] is not None]
        methods[name] = {
            "replicates": len(replicates),
            "mean_final_regret": (float(np.mean(finals))
                                  if finals else None),
            "min_final_regret": float(np.min(finals)) if finals else None,
            "max_final_regret": float(np.max(finals)) if finals else None,
            "optimum_hits": sum(s["found_optimum"] for s in summaries),
            "mean_evaluations": float(np.mean(
                [s["evaluations"] for s in summaries])),
            "per_replicate": summaries,
        }
    report = {"optimum": float(optimum), "methods": methods}
    if trajectories:
        report["trajectories"] = labeled_regret_trajectories(runs, optimum)
    return report
