"""Analytics over NAS run logs: trajectories, utilization, best archs."""

from .quantiles import band_spread, quantile_bands
from .regret import (compare_report, evaluations_to_regret,
                     fraction_of_optimum_trajectory,
                     labeled_regret_trajectories, regret_summary,
                     regret_trajectory)
from .topk import (cache_hit_fraction, top_k_architectures,
                   unique_architectures)
from .trajectory import (best_so_far_trajectory, binned_mean_trajectory,
                         rolling_mean_trajectory, time_to_reward)

__all__ = ['band_spread', 'best_so_far_trajectory', 'binned_mean_trajectory', 'cache_hit_fraction', 'compare_report', 'evaluations_to_regret', 'fraction_of_optimum_trajectory', 'labeled_regret_trajectories', 'quantile_bands', 'regret_summary', 'regret_trajectory', 'rolling_mean_trajectory', 'time_to_reward', 'top_k_architectures', 'unique_architectures']
