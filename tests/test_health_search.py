"""Search-level health integration (ISSUE 4 acceptance).

Numeric chaos heals under guard-mode=recover, guard-mode=check crashes
resurrect, same-seed fingerprints are bit-identical with guards on but
silent, and the new health counters round-trip through checkpoints
without disturbing the pinned guard-off schema.
"""

import numpy as np
import pytest

from repro.health import GuardConfig
from repro.hpc import FaultConfig, NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig, run_search
from repro.search.chaos import check_numeric_rows, numeric_matrix

pytestmark = pytest.mark.health


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_surrogate(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(),
                           epochs=1, train_fraction=0.1, timeout=600.0,
                           log_params_opt=6.5, seed=seed)


def small_config(method="a3c", minutes=60, **kwargs):
    defaults = dict(method=method, allocation=NodeAllocation(32, 4, 3),
                    wall_time=minutes * 60.0, seed=1)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


def numeric_faults(seed=3):
    return FaultConfig(nan_grad_prob=0.05, exploding_loss_prob=0.02,
                       corrupt_delta_prob=0.05, seed=seed)


class TestFingerprintIdentity:
    """Guards observe, never perturb: with no anomaly firing, a guarded
    search is bit-identical to an unguarded one."""

    @pytest.mark.parametrize("method", ["a3c", "a2c"])
    def test_check_mode_matches_off(self, space, method):
        cfg_off = small_config(method, minutes=40)
        cfg_on = small_config(method, minutes=40,
                              guard=GuardConfig(mode="check"),
                              max_restarts=3)
        fp_off = run_search(space, make_surrogate(space), cfg_off).fingerprint()
        res_on = run_search(space, make_surrogate(space), cfg_on)
        assert res_on.fingerprint() == fp_off
        assert res_on.num_rollbacks == 0 and res_on.num_restarts == 0

    def test_mode_off_config_is_inert(self, space):
        fp_none = run_search(space, make_surrogate(space),
                             small_config(minutes=30)).fingerprint()
        fp_off = run_search(space, make_surrogate(space),
                            small_config(minutes=30,
                                         guard=GuardConfig(mode="off"))
                            ).fingerprint()
        assert fp_off == fp_none


class TestNumericChaos:
    def test_numeric_matrix_acceptance(self):
        """The ISSUE 4 chaos criterion: NaN-gradient + corrupt-delta runs
        for a3c and a2c complete with a finite best reward, at least one
        rollback and one resurrection, and no agent permanently lost."""
        rows = numeric_matrix(minutes=40.0)
        assert {row["level"] for row in rows} == {"numeric/a3c",
                                                  "numeric/a2c"}
        assert check_numeric_rows(rows) == []

    def test_recover_counters_consistent(self, space):
        cfg = small_config(minutes=40, faults=numeric_faults(),
                           guard=GuardConfig(mode="recover"),
                           max_restarts=3)
        search = NasSearch(space, make_surrogate(space), cfg)
        res = search.run()
        assert search.injector.num_numeric_faults > 0
        assert res.num_rollbacks >= 1
        assert res.num_restarts >= 1
        assert res.num_rollbacks == sum(res.agent_rollbacks.values())
        assert res.num_restarts == sum(res.agent_restarts.values())
        assert not res.failed_agents
        assert np.isfinite(res.best().reward)

    def test_check_mode_resurrects_without_rollbacks(self, space):
        cfg = small_config(minutes=40, faults=numeric_faults(),
                           guard=GuardConfig(mode="check"),
                           max_restarts=8)
        res = run_search(space, make_surrogate(space), cfg)
        assert res.num_restarts >= 1
        assert res.num_rollbacks == 0
        assert np.isfinite(res.best().reward)

    def test_restart_cap_respected(self, space):
        cfg = small_config(minutes=40, faults=numeric_faults(),
                           guard=GuardConfig(mode="check"),
                           max_restarts=1)
        res = run_search(space, make_surrogate(space), cfg)
        assert all(n <= 1 for n in res.agent_restarts.values())

    def test_deterministic_under_numeric_faults(self, space):
        cfg = small_config(minutes=30, faults=numeric_faults(),
                           guard=GuardConfig(mode="recover"),
                           max_restarts=3)
        a = run_search(space, make_surrogate(space), cfg)
        b = run_search(space, make_surrogate(space), cfg)
        assert a.fingerprint() == b.fingerprint()
        assert a.agent_restarts == b.agent_restarts
        assert a.agent_rollbacks == b.agent_rollbacks


class TestCheckpointHealth:
    def run_checkpointed(self, space, **overrides):
        cfg = small_config(minutes=40, faults=numeric_faults(),
                           guard=GuardConfig(mode="recover"),
                           max_restarts=3, checkpoint_interval=600.0,
                           **overrides)
        search = NasSearch(space, make_surrogate(space), cfg)
        result = search.run()
        return search, result, cfg

    def test_counters_round_trip_json(self, space):
        search, result, _ = self.run_checkpointed(space)
        assert result.num_restarts >= 1    # the run actually healed
        ckpt = search.checkpoints[-1]
        restored = ckpt.round_trip()
        assert restored.agent_restarts == ckpt.agent_restarts
        assert restored.agent_rollbacks == ckpt.agent_rollbacks
        assert restored.fingerprint() == ckpt.fingerprint()

    def test_resume_restores_counters(self, space):
        search, _, cfg = self.run_checkpointed(space)
        mid = next((c for c in search.checkpoints
                    if c.agent_restarts or c.agent_rollbacks),
                   search.checkpoints[-1])
        resumed = NasSearch(space, make_surrogate(space), cfg,
                            resume_from=mid.round_trip()).run()
        for agent_id, n in mid.agent_restarts.items():
            assert resumed.agent_restarts.get(agent_id, 0) >= n
        for agent_id, n in mid.agent_rollbacks.items():
            assert resumed.agent_rollbacks.get(agent_id, 0) >= n

    def test_guard_off_checkpoint_has_no_health_key(self, space):
        cfg = small_config(minutes=30, checkpoint_interval=600.0)
        search = NasSearch(space, make_surrogate(space), cfg)
        search.run()
        data = search.checkpoints[-1].to_json()
        assert "health" not in data
        assert "health" not in (data["ps_state"] or {})
        for agent in data["agents"]:
            boundary = agent.get("boundary") or {}
            assert "lr" not in boundary
