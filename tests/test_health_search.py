"""Search-level health integration (ISSUE 4 acceptance).

Numeric chaos heals under guard-mode=recover, guard-mode=check crashes
resurrect, same-seed fingerprints are bit-identical with guards on but
silent, and the new health counters round-trip through checkpoints
without disturbing the pinned guard-off schema.
"""

import dataclasses
import json
import os
from collections import Counter

import numpy as np
import pytest

from _checkpoint_common import CaptureLog, records_json, watermarks
from repro.events import RESTART, ROLLBACK, RecordingSink
from repro.health import GuardConfig
from repro.hpc import FaultConfig, NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig, chaos, run_search
from repro.search.journal import (GENERATIONS_DIR, JOURNAL_NAME,
                                  CheckpointGenerations, read_journal,
                                  read_records)
from repro.verify.fingerprint import record_digest

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
        rows = chaos.run("numeric", minutes=40.0)
        assert {row["level"] for row in rows} == {"numeric/a3c",
                                                  "numeric/a2c"}
        assert chaos.check("numeric", rows) == []

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

    @pytest.mark.parametrize("method", ["a3c", "a2c"])
    def test_restart_keeps_every_agents_records(self, space, method):
        """A resurrection trims the shared record list in place, so the
        records other live agents append afterwards still reach the
        result.  Each agent's records equal, as a multiset, the ones the
        event stream rebuilds, which each restart cuts back to its
        boundary (the numeric chaos row's configuration)."""
        cfg = small_config(method, minutes=40, faults=numeric_faults(),
                           guard=GuardConfig(mode="recover"),
                           max_restarts=3)
        sink = RecordingSink()
        res = NasSearch(space, make_surrogate(space), cfg,
                        event_sink=sink).run()
        assert res.num_restarts >= 1
        rebuilt = read_records(sink.events)[0]
        for agent_id in range(cfg.allocation.num_agents):
            kept = [rec for rec in res.records if rec.agent_id == agent_id]
            assert kept, agent_id
            assert record_digest(kept) == record_digest(
                [rec for rec in rebuilt if rec.agent_id == agent_id]), \
                agent_id

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
    def run_checkpointed(self, space, directory):
        cfg = small_config(minutes=40, faults=numeric_faults(),
                           guard=GuardConfig(mode="recover"),
                           max_restarts=3, checkpoint_every_records=18,
                           journal_dir=os.fspath(directory))
        log = CaptureLog()
        result = log.attach(NasSearch(space, make_surrogate(space), cfg,
                                      event_sink=log)).run()
        return log, result, cfg

    def test_counters_round_trip_json(self, space, tmp_path):
        """The newest generation, loaded with its journal, carries the
        resurrections and rollbacks journaled before its capture."""
        log, result, _ = self.run_checkpointed(space, tmp_path)
        assert result.num_restarts >= 1    # the run actually healed
        events = read_journal(tmp_path / JOURNAL_NAME)
        before = events[:watermarks(events)[-1]]
        restored = log.checkpoint(-1)
        assert restored.agent_restarts == dict(Counter(
            e.agent_id for e in before if e.kind == RESTART))
        assert restored.agent_rollbacks == dict(Counter(
            e.agent_id for e in before if e.kind == ROLLBACK))
        assert records_json(restored.records) == \
            records_json(log.captures[-1].records)

    def test_resume_restores_counters(self, space, tmp_path):
        log, _, cfg = self.run_checkpointed(space, tmp_path)
        loaded = [log.checkpoint(i) for i in range(len(log.captures))]
        mid = next((c for c in loaded
                    if c.agent_restarts or c.agent_rollbacks), loaded[-1])
        resumed = NasSearch(space, make_surrogate(space),
                            dataclasses.replace(
                                cfg, journal_dir=None,
                                checkpoint_every_records=None),
                            resume_from=mid).run()
        for agent_id, n in mid.agent_restarts.items():
            assert resumed.agent_restarts.get(agent_id, 0) >= n
        for agent_id, n in mid.agent_rollbacks.items():
            assert resumed.agent_rollbacks.get(agent_id, 0) >= n

    def test_guard_off_checkpoint_has_no_health_key(self, space, tmp_path):
        cfg = small_config(minutes=30, checkpoint_every_records=33,
                           journal_dir=os.fspath(tmp_path))
        NasSearch(space, make_surrogate(space), cfg).run()
        newest = CheckpointGenerations(tmp_path / GENERATIONS_DIR).paths()[-1]
        data = json.loads(newest.read_text())
        assert "health" not in data
        assert "health" not in (data["ps_state"] or {})
        for agent in data["agents"]:
            boundary = agent.get("boundary") or {}
            assert "lr" not in boundary
