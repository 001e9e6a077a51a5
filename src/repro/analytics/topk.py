"""Top-architecture extraction and uniqueness statistics.

The paper's analytics module finds "the best architectures ... and
number of unique architectures evaluated"; after a search, the top 50
by estimated reward go to post-training (§5).
"""

from __future__ import annotations

from ..search.base import RewardRecord, rank_key

__all__ = ["top_k_architectures", "unique_architectures",
           "cache_hit_fraction"]


def top_k_architectures(records: list[RewardRecord], k: int = 50
                        ) -> list[RewardRecord]:
    """Best record per distinct architecture, highest reward first.
    NaN rewards rank strictly below every finite (and ±inf) reward."""
    best: dict[tuple, RewardRecord] = {}
    for rec in records:
        cur = best.get(rec.arch.key)
        if cur is None or rank_key(rec) > rank_key(cur):
            best[rec.arch.key] = rec
    return sorted(best.values(), key=lambda r: -rank_key(r))[:k]


def unique_architectures(records: list[RewardRecord]) -> int:
    return len({rec.arch.key for rec in records})


def cache_hit_fraction(records: list[RewardRecord]) -> float:
    if not records:
        return 0.0
    return sum(rec.cached for rec in records) / len(records)

