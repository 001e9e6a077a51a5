"""Unit tests for the analytics module."""

import numpy as np
import pytest

from repro.analytics import (best_so_far_trajectory, binned_mean_trajectory,
                             cache_hit_fraction, quantile_bands,
                             rolling_mean_trajectory, time_to_reward,
                             top_k_architectures, unique_architectures)
from repro.nas.arch import Architecture
from repro.search.base import RewardRecord


def R(t, reward, agent=0, arch_id=0, cached=False):
    return RewardRecord(time=t * 60.0, agent_id=agent,
                        arch=Architecture("s", (arch_id,)), reward=reward,
                        params=100, duration=10.0, cached=cached,
                        timed_out=False)


RECORDS = [R(1, 0.1, arch_id=1), R(2, 0.5, arch_id=2), R(3, 0.3, arch_id=3),
           R(4, 0.7, arch_id=4), R(5, 0.6, arch_id=5)]


class TestTrajectories:
    def test_best_so_far(self):
        traj = best_so_far_trajectory(RECORDS)
        np.testing.assert_allclose(traj[:, 1], [0.1, 0.5, 0.5, 0.7, 0.7])
        np.testing.assert_allclose(traj[:, 0], [1, 2, 3, 4, 5])
        # NaN rewards, one first and one mid-stream, never count
        nan = float("nan")
        traj = best_so_far_trajectory([R(1, nan), R(2, 0.5), R(3, nan),
                                       R(4, 0.3), R(5, 0.6)])
        np.testing.assert_array_equal(traj[:, 1],
                                      [-np.inf, 0.5, 0.5, 0.5, 0.6])

    def test_best_so_far_unsorted_input(self):
        traj = best_so_far_trajectory(list(reversed(RECORDS)))
        np.testing.assert_allclose(traj[:, 1], [0.1, 0.5, 0.5, 0.7, 0.7])

    def test_rolling_mean_window(self):
        traj = rolling_mean_trajectory(RECORDS, window=2)
        np.testing.assert_allclose(traj[:, 1], [0.3, 0.4, 0.5, 0.65])

    def test_rolling_mean_window_clamped(self):
        traj = rolling_mean_trajectory(RECORDS, window=100)
        assert len(traj) == 1
        assert traj[0, 1] == pytest.approx(np.mean([0.1, 0.5, 0.3, 0.7, 0.6]))

    def test_rolling_mean_empty(self):
        assert rolling_mean_trajectory([]).shape == (0, 2)

    def test_binned_mean(self):
        traj = binned_mean_trajectory(RECORDS, bin_minutes=2.0,
                                      end_minutes=6.0)
        # bins [0,2): r(1)=0.1; [2,4): 0.5, 0.3; [4,6): 0.7, 0.6
        np.testing.assert_allclose(traj[:, 1], [0.1, 0.4, 0.65])

    def test_binned_mean_nan_for_empty_bins(self):
        traj = binned_mean_trajectory([R(5, 0.5)], bin_minutes=1.0,
                                      end_minutes=6.0)
        assert np.isnan(traj[0, 1])
        assert not np.isnan(traj[-1, 1])

    def test_time_to_reward(self):
        assert time_to_reward(RECORDS, 0.5) == 2.0
        assert time_to_reward(RECORDS, 0.7) == 4.0
        assert time_to_reward(RECORDS, 0.9) is None


class TestTopK:
    def test_dedupes_by_best_reward(self):
        records = [R(1, 0.2, arch_id=1), R(2, 0.8, arch_id=1),
                   R(3, 0.5, arch_id=2)]
        top = top_k_architectures(records, k=5)
        assert len(top) == 2
        assert top[0].reward == 0.8 and top[0].arch.choices == (1,)

    def test_k_limits(self):
        assert len(top_k_architectures(RECORDS, k=2)) == 2

    def test_unique_count(self):
        records = RECORDS + [R(6, 0.1, arch_id=1)]
        assert unique_architectures(records) == 5

    def test_cache_fraction(self):
        records = [R(1, 0.1, cached=True), R(2, 0.2), R(3, 0.3, cached=True),
                   R(4, 0.4)]
        assert cache_hit_fraction(records) == 0.5
        assert cache_hit_fraction([]) == 0.0


class TestTopKNaN:
    """NaN propagation ordering: a NaN reward that reaches the records
    (guards off) must rank strictly below every finite reward and must
    never squat in a dedup slot over a finite observation."""

    def test_nan_never_ranks_above_finite(self):
        records = [R(1, float("nan"), arch_id=1), R(2, 0.2, arch_id=2),
                   R(3, -5.0, arch_id=3)]
        top = top_k_architectures(records, k=5)
        assert [r.reward for r in top[:2]] == [0.2, -5.0]
        assert np.isnan(top[2].reward)

    def test_finite_displaces_earlier_nan_for_same_arch(self):
        records = [R(1, float("nan"), arch_id=1), R(2, 0.3, arch_id=1)]
        top = top_k_architectures(records, k=5)
        assert len(top) == 1 and top[0].reward == 0.3

    def test_nan_cannot_displace_finite_for_same_arch(self):
        records = [R(1, 0.3, arch_id=1), R(2, float("nan"), arch_id=1)]
        top = top_k_architectures(records, k=5)
        assert len(top) == 1 and top[0].reward == 0.3

    def test_all_nan_still_returns_k(self):
        records = [R(t, float("nan"), arch_id=t) for t in range(1, 4)]
        assert len(top_k_architectures(records, k=2)) == 2


class TestQuantiles:
    def test_bands_shape_and_order(self):
        reps = []
        for offset in (0.0, 0.1, 0.2, 0.3):
            reps.append([R(t, 0.1 * t + offset, arch_id=t)
                         for t in range(1, 11)])
        grid = np.array([2.0, 5.0, 9.0])
        bands = quantile_bands(reps, grid, quantiles=(0.1, 0.5, 0.9),
                               window=1)
        assert bands.shape == (3, 3)
        assert (bands[:, 0] <= bands[:, 1]).all()
        assert (bands[:, 1] <= bands[:, 2]).all()

    def test_median_of_symmetric_offsets(self):
        reps = []
        for offset in (-0.1, 0.0, 0.1):
            reps.append([R(t, 0.5 + offset, arch_id=t)
                         for t in range(1, 6)])
        bands = quantile_bands(reps, np.array([3.0]), quantiles=(0.5,),
                               window=1)
        assert bands[0, 0] == pytest.approx(0.5)

    def test_empty_replications_rejected(self):
        with pytest.raises(ValueError):
            quantile_bands([], np.array([1.0]))

    def test_replication_without_records_rejected(self):
        with pytest.raises(ValueError):
            quantile_bands([[]], np.array([1.0]))

    def test_band_spread(self):
        from repro.analytics import band_spread
        bands = np.array([[0.1, 0.5, 0.9], [0.4, 0.5, 0.6]])
        np.testing.assert_allclose(band_spread(bands), [0.8, 0.2])
