"""Reward-trajectory analysis (Figs. 4, 6, 11, 13).

The paper's analytics module "parses the logs from the NAS to extract
the reward trajectory over time"; here the log is the list of
:class:`~repro.search.base.RewardRecord` a run produced.
"""

from __future__ import annotations

import numpy as np

from ..search.base import RewardRecord

__all__ = ["rolling_mean_trajectory", "best_so_far_trajectory",
           "binned_mean_trajectory", "time_to_reward"]


def _sorted(records: list[RewardRecord]) -> list[RewardRecord]:
    return sorted(records, key=lambda r: r.time)


def best_so_far_trajectory(records: list[RewardRecord]
                           ) -> np.ndarray:
    """(minutes, best-so-far reward) rows, one per evaluation, in
    completion order.  NaN rewards (a diverged metric with guards off)
    never count: rows before the first finite reward read ``-inf``."""
    recs = _sorted(records)
    out = np.zeros((len(recs), 2))
    best = -np.inf
    for i, r in enumerate(recs):
        if not np.isnan(r.reward):
            best = max(best, r.reward)
        out[i] = (r.time / 60.0, best)
    return out


def rolling_mean_trajectory(records: list[RewardRecord], window: int = 100
                            ) -> np.ndarray:
    """(minutes, rolling-mean reward) rows — the smoothed reward-over-time
    curve plotted in Fig. 4."""
    recs = _sorted(records)
    if not recs:
        return np.zeros((0, 2))
    rewards = np.array([r.reward for r in recs])
    times = np.array([r.time / 60.0 for r in recs])
    window = max(1, min(window, len(rewards)))
    kernel = np.ones(window) / window
    smooth = np.convolve(rewards, kernel, mode="valid")
    return np.column_stack([times[window - 1:], smooth])


def binned_mean_trajectory(records: list[RewardRecord],
                           bin_minutes: float = 15.0,
                           end_minutes: float | None = None) -> np.ndarray:
    """(bin-end minutes, mean reward in bin) rows; empty bins carry NaN."""
    recs = _sorted(records)
    if not recs:
        return np.zeros((0, 2))
    end = end_minutes or recs[-1].time / 60.0
    edges = np.arange(0.0, end + bin_minutes, bin_minutes)
    times = np.array([r.time / 60.0 for r in recs])
    rewards = np.array([r.reward for r in recs])
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (times >= lo) & (times < hi)
        rows.append((hi, float(rewards[mask].mean()) if mask.any()
                     else float("nan")))
    return np.array(rows)


def time_to_reward(records: list[RewardRecord], threshold: float
                   ) -> float | None:
    """Minutes until the best-so-far reward first reaches ``threshold``
    (None if never) — the paper's "A3C reaches reward values of 0.5 ...
    in approximately 70 minutes" statistic."""
    traj = best_so_far_trajectory(records)
    hit = np.flatnonzero(traj[:, 1] >= threshold)
    return float(traj[hit[0], 0]) if len(hit) else None
