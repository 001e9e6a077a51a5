"""Fault-tolerant search: injection, barrier safety, checkpoint/resume."""

import numpy as np
import pytest

from _checkpoint_common import round_trip
from repro.hpc import FaultConfig, NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.rewards.base import RewardModel
from repro.search import (NasSearch, SearchCheckpoint, SearchConfig,
                          resume_durable, run_search)
from repro.search.journal import (GENERATIONS_DIR, JOURNAL_NAME,
                                  CheckpointGenerations, read_journal)


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


def signature(result):
    """Order-independent trajectory fingerprint."""
    return sorted((round(r.time, 9), r.agent_id, r.arch.key,
                   round(r.reward, 12)) for r in result.records)


class TestZeroFaultInert:
    def test_inert_fault_config_is_bit_identical(self, space):
        """An all-zero FaultConfig must not change a single record."""
        plain = run_search(space, make_surrogate(space), small_config())
        gated = run_search(space, make_surrogate(space),
                           small_config(faults=FaultConfig()))
        assert signature(plain) == signature(gated)
        assert plain.end_time == gated.end_time

    def test_inert_config_spawns_no_injector(self, space):
        s = NasSearch(space, make_surrogate(space),
                      small_config(faults=FaultConfig()))
        assert s.injector is None


class TestFaultedSearch:
    def test_completes_with_failures_accounted(self, space):
        faults = FaultConfig(node_mtbf=4 * 3600.0, node_repair_time=300.0,
                             job_crash_prob=0.05, seed=9)
        res = run_search(space, make_surrogate(space),
                         small_config(faults=faults,
                                      batch_deadline=900.0))
        assert res.num_evaluations > 0
        assert not res.failed_agents          # nobody deadlocked or died
        assert res.end_time <= 3600.0

    def test_exhausted_retries_surface_failure_reward(self, space):
        # crash probability 1: every attempt dies, retries exhaust, and
        # each job surfaces the paper's failure reward instead of hanging
        faults = FaultConfig(job_crash_prob=1.0, seed=0)
        res = run_search(space, make_surrogate(space),
                         small_config(minutes=20, faults=faults))
        assert res.num_evaluations > 0
        assert res.num_failed_evals == res.num_evaluations
        assert all(r.reward == RewardModel.FAILURE_REWARD
                   for r in res.records)

    def test_outage_stalls_submissions(self, space):
        outage = ((600.0, 1200.0),)
        res = run_search(space, make_surrogate(space),
                         small_config(minutes=40,
                                      faults=FaultConfig(outages=outage)))
        # no non-cached evaluation can finish inside the outage window
        # (every pilot dispatched before 600 finishes before 600+dur,
        # and anything submitted during the window waits it out)
        started_in_window = [r for r in res.records
                             if not r.cached
                             and 600.0 < r.time - r.duration < 1200.0]
        assert started_in_window == []
        assert res.num_evaluations > 0

    def test_deterministic_under_faults(self, space):
        faults = FaultConfig(node_mtbf=2 * 3600.0, job_crash_prob=0.05,
                             seed=4)
        cfg = small_config(faults=faults, batch_deadline=900.0)
        a = run_search(space, make_surrogate(space), cfg)
        b = run_search(space, make_surrogate(space), cfg)
        assert signature(a) == signature(b)


class TestCheckpointResume:
    @pytest.mark.parametrize("method", ["a3c", "a2c", "rdm"])
    def test_resume_reproduces_trajectory(self, space, method):
        cfg = small_config(method, checkpoint_every_records=33)
        search = NasSearch(space, make_surrogate(space), cfg)
        full = search.run()
        assert len(search.checkpoints) >= 3
        ref = signature(full)
        mid = search.checkpoints[len(search.checkpoints) // 2]
        resumed = NasSearch(space, make_surrogate(space),
                            small_config(method),
                            resume_from=round_trip(mid)).run()
        assert signature(resumed) == ref
        assert resumed.end_time == full.end_time

    def test_resume_from_saved_file(self, space, tmp_path):
        """Save, then resume from disk: a checkpoint is written only as
        a verified generation under ``journal_dir``, and
        ``resume_durable`` continues from the newest one (balsam skips
        evaluation replay, so the generation, with the records and
        caches the journal rebuilds, carries the run)."""
        cfg = small_config(minutes=30, checkpoint_every_records=33,
                           journal_dir=str(tmp_path))
        search = NasSearch(space, make_surrogate(space), cfg)
        full = search.run()
        loaded, _integrity = CheckpointGenerations(
            tmp_path / GENERATIONS_DIR).load_latest(
                read_journal(tmp_path / JOURNAL_NAME))
        assert loaded.time == search.checkpoints[-1].time
        resumed = resume_durable(space, make_surrogate(space),
                                 small_config(minutes=30,
                                              journal_dir=str(tmp_path)))
        assert resumed.num_replay_loaded == 0
        assert signature(resumed.run()) == signature(full)

    def test_checkpoint_counters_restored(self, space):
        cfg = small_config(minutes=30, checkpoint_every_records=33)
        search = NasSearch(space, make_surrogate(space), cfg)
        full = search.run()
        resumed = NasSearch(space, make_surrogate(space),
                            small_config(minutes=30),
                            resume_from=search.checkpoints[0]).run()
        assert resumed.num_evaluations == full.num_evaluations
        assert resumed.unique_architectures == full.unique_architectures

    def test_mismatched_config_rejected(self, space):
        search = NasSearch(space, make_surrogate(space),
                           small_config(minutes=20,
                                        checkpoint_every_records=12))
        search.run()
        ckpt = search.checkpoints[0]
        with pytest.raises(ValueError):
            NasSearch(space, make_surrogate(space),
                      small_config("a2c", minutes=20), resume_from=ckpt)
        with pytest.raises(ValueError):
            NasSearch(space, make_surrogate(space),
                      small_config(minutes=20, seed=99), resume_from=ckpt)

    def test_unsupported_version_rejected(self, space):
        search = NasSearch(space, make_surrogate(space),
                           small_config(minutes=20,
                                        checkpoint_every_records=12))
        search.run()
        data = search.checkpoints[0].to_json()
        data["version"] = 999
        with pytest.raises(ValueError):
            SearchCheckpoint.from_json(data)

    def test_no_checkpointing_without_record_clock(self, space):
        search = NasSearch(space, make_surrogate(space),
                           small_config(minutes=20))
        search.run()
        assert search.checkpoints == []


@pytest.mark.chaos
class TestChaosAcceptance:
    """The issue's acceptance scenario: paper-scale agents, node MTBF,
    job crashes and a mid-run outage — the search completes, loses no
    agent, and the best reward stays within 5% of the fault-free run."""

    def test_paper_scale_faulted_run(self, space):
        wall = 90 * 60.0
        alloc = NodeAllocation.paper_256()  # 21 agents x 11 workers
        # ~5% chance each node fails during the run + 2% job crashes +
        # a service outage through the middle of the run
        faults = FaultConfig(node_mtbf=20.0 * wall,
                             node_repair_time=wall / 20.0,
                             job_crash_prob=0.02,
                             outages=((0.5 * wall, 0.55 * wall),),
                             seed=13)
        base_cfg = SearchConfig(method="a3c", allocation=alloc,
                                wall_time=wall, seed=2)
        fault_cfg = SearchConfig(method="a3c", allocation=alloc,
                                 wall_time=wall, seed=2, faults=faults,
                                 batch_deadline=wall / 4)

        base = NasSearch(space, make_surrogate(space), base_cfg)
        clean = base.run()
        chaos = NasSearch(space, make_surrogate(space), fault_cfg)
        faulted = chaos.run()

        assert chaos.injector.num_node_failures > 0
        assert chaos.service.num_restarts > 0
        assert faulted.end_time <= wall
        assert not faulted.failed_agents      # no agent lost to deadlock
        assert faulted.num_evaluations > 0
        drop = clean.best().reward - faulted.best().reward
        assert drop <= 0.05 * abs(clean.best().reward)

    def test_kill_and_resume_matches_uninterrupted(self, space):
        """Kill-at-T emulation: a checkpoint taken mid-run, resumed in a
        fresh process (JSON round trip), reproduces the uninterrupted
        fault-free remaining trajectory exactly."""
        cfg = small_config(minutes=90, checkpoint_every_records=50)
        search = NasSearch(space, make_surrogate(space), cfg)
        full = search.run()
        for ckpt in search.checkpoints:
            resumed = NasSearch(space, make_surrogate(space),
                                small_config(minutes=90),
                                resume_from=round_trip(ckpt)).run()
            assert signature(resumed) == signature(full)
