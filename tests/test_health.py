"""Unit tests for the numerical health layer (repro.health)."""

import numpy as np
import pytest

from repro.health import (AgentHealth, DeltaSanitizer, GuardConfig,
                          LossSpikeDetector, NumericalAnomaly,
                          PPODivergenceDetector, all_finite, require_finite)
from repro.health.guards import (DELTA_NORM_FACTOR, DELTA_WARMUP, KL_LIMIT,
                                 LOSS_WARMUP, MIN_LR_FRACTION, RATIO_LIMIT)
from repro.rl.ppo import PPOStats
from repro.search.checkpoint import AgentBoundary, restore_boundary


def stats(policy_loss=0.1, value_loss=0.2, approx_kl=0.01, max_ratio=1.2):
    return PPOStats(policy_loss, value_loss, entropy=1.0, clip_fraction=0.1,
                    grad_norm=0.5, approx_kl=approx_kl, max_ratio=max_ratio)


class TestGuardConfig:
    def test_default_off_and_inert(self):
        cfg = GuardConfig()
        assert cfg.mode == "off"
        assert not cfg.enabled and not cfg.recovers

    def test_modes(self):
        assert GuardConfig(mode="check").enabled
        assert not GuardConfig(mode="check").recovers
        assert GuardConfig(mode="recover").recovers

    @pytest.mark.parametrize("kwargs", [
        dict(mode="maybe"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GuardConfig(**kwargs)


class TestFiniteChecks:
    def test_all_finite(self):
        assert all_finite(np.ones(10))
        assert not all_finite(np.array([1.0, np.nan]))
        assert not all_finite(np.array([[1.0], [np.inf]]))

    def test_blockwise_scan_finds_early_poison(self):
        arr = np.ones(1000)
        arr[3] = np.nan
        assert not all_finite(arr, block=16)

    def test_require_finite_raises_with_kind(self):
        with pytest.raises(NumericalAnomaly) as exc:
            require_finite(np.array([np.nan]), "gradients")
        assert exc.value.kind == "nonfinite"
        assert exc.value.what == "gradients"


class TestLossSpikeDetector:
    def test_warmup_then_spike(self):
        det = LossSpikeDetector()
        for _ in range(LOSS_WARMUP + 1):
            assert not det.observe(1.0)
        assert det.observe(100.0)
        assert det.num_spikes == 1
        # the spike was excluded from the baseline: healthy follows
        assert not det.observe(1.0)

    def test_nonfinite_loss_always_flagged(self):
        det = LossSpikeDetector()
        assert det.observe(float("nan"))
        assert det.observe(float("inf"))

    def test_export_restore_round_trip(self):
        det = LossSpikeDetector()
        for v in (1.0, 1.1, 0.9, 1.05):
            det.observe(v)
        fresh = LossSpikeDetector()
        fresh.restore_state(det.export_state())
        assert fresh.count == det.count
        assert fresh.mean == det.mean and fresh.var == det.var


class TestPPODivergenceDetector:
    def test_healthy_passes(self):
        assert PPODivergenceDetector().check(stats()) is None

    def test_kl_limit(self):
        assert PPODivergenceDetector().check(
            stats(approx_kl=KL_LIMIT * 0.9)) is None
        assert PPODivergenceDetector().check(
            stats(approx_kl=KL_LIMIT * 1.5)) == "kl_divergence"

    def test_ratio_limit(self):
        assert PPODivergenceDetector().check(
            stats(max_ratio=RATIO_LIMIT * 0.9)) is None
        assert PPODivergenceDetector().check(
            stats(max_ratio=RATIO_LIMIT * 1.1)) == "ratio_blowup"

    def test_nonfinite_stat(self):
        assert PPODivergenceDetector().check(
            stats(policy_loss=float("nan"))) == "nonfinite"


class TestDeltaSanitizer:
    def test_accepts_and_warms_up(self):
        san = DeltaSanitizer()
        for _ in range(DELTA_WARMUP):
            assert san.check(np.ones(4)) is None
        assert san.accepted == DELTA_WARMUP and san.num_rejected == 0

    def test_rejects_nonfinite(self):
        san = DeltaSanitizer()
        assert san.check(np.array([1.0, np.nan])) == "nonfinite"
        assert san.num_rejected_nonfinite == 1

    def test_rejects_norm_outlier_after_warmup(self):
        san = DeltaSanitizer()
        big = np.full(4, 1e6)
        assert san.check(big) is None        # pre-warmup: accepted
        for _ in range(DELTA_WARMUP):
            assert san.check(np.ones(4)) is None
        # wait for the EWMA to settle near 1 before the outlier probe
        for _ in range(20):
            san.check(np.ones(4))
        assert san.check(big) == "outlier"
        assert san.num_rejected_outlier == 1
        # rejection did not pollute the baseline
        assert san.check(np.ones(4)) is None
        # the screen is relative: just under the factor still passes
        assert san.check(np.full(4, 0.9 * DELTA_NORM_FACTOR
                                 * san.ewma_norm / 2.0)) is None

    def test_export_restore_round_trip(self):
        san = DeltaSanitizer()
        san.check(np.ones(4))
        san.check(np.array([np.nan] * 4))
        fresh = DeltaSanitizer()
        fresh.restore_state(san.export_state())
        assert fresh.accepted == 1
        assert fresh.ewma_norm == san.ewma_norm
        assert fresh.num_rejected_nonfinite == 1


class _Policy:
    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=np.float64).copy()

    def get_flat(self):
        return self.vec.copy()

    def set_flat(self, values):
        self.vec = np.asarray(values, dtype=np.float64).copy()


class _Opt:
    def __init__(self, lr=0.1):
        self.lr = lr
        self.t = 0
        self.m = np.zeros(3)
        self.v = np.zeros(3)

    def export_state(self):
        return {"t": self.t, "m": self.m.copy(), "v": self.v.copy()}

    def restore_state(self, state):
        self.t = int(state["t"])
        self.m = np.asarray(state["m"]).copy()
        self.v = np.asarray(state["v"]).copy()


def _boundary(policy, opt, iteration=0):
    """The recover-mode iteration boundary of ``policy``/``opt`` (what
    the search's BoundaryHook captures before the update)."""
    return AgentBoundary(
        time=0.0, iteration=iteration, rng_state={},
        policy_flat=policy.get_flat(), opt_state=opt.export_state(),
        consecutive_cached=0, cache_len=0, num_records=0, num_submitted=0,
        num_cache_hits=0, num_failed=0, lr=opt.lr)


class TestAgentHealth:
    def make(self):
        return AgentHealth(base_lr=0.1)

    def roll_back(self, health, boundary, policy, opt):
        """The search's recover path: restore the boundary, then let
        the health layer back off the learning rate."""
        restore_boundary(boundary, policy, opt)
        return health.rollback(opt)

    def test_healthy_update_passes(self):
        health = self.make()
        assert health.check_update(np.ones(3), np.full(3, 0.01),
                                   stats()) is None
        assert health.last_anomaly is None

    def test_nonfinite_delta_detected(self):
        health = self.make()
        assert health.check_update(np.ones(3), np.array([np.nan, 0, 0]),
                                   stats()) == "nonfinite:delta"

    def test_nonfinite_policy_detected(self):
        health = self.make()
        assert health.check_update(np.array([np.inf, 0, 0]),
                                   np.full(3, 0.01),
                                   stats()) == "nonfinite:policy"

    def test_divergence_detected(self):
        health = self.make()
        assert health.check_update(
            np.ones(3), np.full(3, 0.01),
            stats(approx_kl=KL_LIMIT * 1.5)) == "kl_divergence:ppo"

    def test_rollback_restores_and_backs_off(self):
        health = self.make()
        policy, opt = _Policy([1.0, 2.0, 3.0]), _Opt(lr=0.1)
        opt.t = 5
        boundary = _boundary(policy, opt)
        policy.set_flat([np.nan] * 3)
        opt.t = 6
        lr = self.roll_back(health, boundary, policy, opt)
        np.testing.assert_array_equal(policy.vec, [1.0, 2.0, 3.0])
        assert opt.t == 5
        assert lr == pytest.approx(0.05)
        assert health.num_rollbacks == 1
        # the boundary is only read: it still holds the good state
        np.testing.assert_array_equal(boundary.policy_flat, [1.0, 2.0, 3.0])
        assert boundary.lr == 0.1

    def test_lr_floor(self):
        # one lifetime absorbs one rollback, and a resurrected lifetime
        # resumes from a boundary that carries the backed-off rate; so
        # chain lifetimes, one fresh AgentHealth each (as HealthHook is)
        policy, opt = _Policy([0.0]), _Opt(lr=0.1)
        rates = []
        for iteration in range(8):
            rates.append(self.roll_back(
                self.make(), _boundary(policy, opt, iteration), policy,
                opt))
        assert rates[:2] == [pytest.approx(0.05), pytest.approx(0.025)]
        assert opt.lr == pytest.approx(0.1 * MIN_LR_FRACTION)
        assert rates[-1] == rates[-2]

    def test_escalates_after_budget(self):
        health = self.make()
        policy, opt = _Policy([0.0]), _Opt()
        self.roll_back(health, _boundary(policy, opt, 0), policy, opt)
        with pytest.raises(NumericalAnomaly) as exc:
            self.roll_back(health, _boundary(policy, opt, 1), policy, opt)
        assert exc.value.kind == "rollback_exhausted"


class TestTrainingRewardNonfinite:
    def make_problem(self):
        from repro.problems import combo_problem

        return combo_problem(n_train=64, n_val=32, cell_dim=8, drug_dim=10,
                             scale=0.02)

    def test_nonfinite_maps_to_failure_reward(self):
        from repro.rewards import TrainingReward

        problem = self.make_problem()
        # poison the dataset: every architecture trains straight into NaN
        for arr in problem.dataset.x_train.values():
            arr[0, ...] = np.nan
        reward = TrainingReward(problem, epochs=1)
        arch = problem.space.random_architecture(np.random.default_rng(0))
        res = reward.evaluate(arch)
        # NaN reaches the validation metric, which is floored to the
        # failure reward
        assert res.reward == reward.FAILURE_REWARD
