"""Determinism fingerprints: same seed => same fingerprint, across all
search methods, under fault injection, and across checkpoint/resume."""

import os

import numpy as np
import pytest

from _checkpoint_common import (CaptureLog, checkpoint_fingerprint,
                                load_generation, watermarks)
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.hpc.faults import FaultConfig
from repro.nas.spaces import get_space
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import SearchConfig, run_search
from repro.search.journal import (JOURNAL_NAME, CheckpointGenerations,
                                  read_journal)
from repro.search.runner import NasSearch
from repro.verify.fingerprint import (agent_genesis, chain_step,
                                      param_digest, record_digest)


@pytest.fixture(scope="module")
def space():
    return get_space("combo-small", scale=0.05)


@pytest.fixture(scope="module")
def surrogate(space):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(),
                           epochs=1, train_fraction=0.1, timeout=600.0,
                           seed=7)


def config(method="a3c", minutes=20, **kwargs):
    defaults = dict(method=method, allocation=NodeAllocation(32, 4, 3),
                    wall_time=minutes * 60.0, seed=1)
    defaults.update(kwargs)
    return SearchConfig(**defaults)


class TestPrimitives:
    def test_genesis_is_deterministic_and_distinct(self):
        assert agent_genesis(1, 0) == agent_genesis(1, 0)
        assert agent_genesis(1, 0) != agent_genesis(1, 1)
        assert agent_genesis(1, 0) != agent_genesis(2, 0)

    def test_chain_step_sensitivity(self):
        actions = np.array([[0, 1], [2, 0]])
        rewards = np.array([0.5, -0.25])
        flat = np.linspace(0, 1, 7)
        base = chain_step("aa", actions, rewards, flat)
        assert base == chain_step("aa", actions, rewards, flat.copy())
        assert base != chain_step("bb", actions, rewards, flat)
        assert base != chain_step("aa", actions + 1, rewards, flat)
        assert base != chain_step("aa", actions, rewards + 1e-9, flat)
        assert base != chain_step("aa", actions, rewards, flat + 1e-12)
        assert base != chain_step("aa", actions, rewards, None)

    def test_param_digest(self):
        v = np.arange(5, dtype=np.float64)
        assert param_digest(v) == param_digest(v.astype(np.float32)
                                               .astype(np.float64))
        assert param_digest(None) == ""
        assert param_digest(v) != param_digest(v + 1e-15)

    def test_record_digest_is_order_independent(self, space, surrogate):
        result = run_search(space, surrogate, config(minutes=10))
        records = list(result.records)
        assert len(records) > 4
        shuffled = list(records)
        np.random.default_rng(0).shuffle(shuffled)
        assert record_digest(records) == record_digest(shuffled)
        assert record_digest(records) != record_digest(records[:-1])


class TestSameSeedProperty:
    """ISSUE 3 satellite: two run_search calls with the same seed give
    bit-identical fingerprints across a3c/a2c/rdm."""

    @pytest.mark.verify
    @pytest.mark.parametrize("method", ["a3c", "a2c", "rdm"])
    def test_same_seed_same_fingerprint(self, space, surrogate, method):
        cfg = config(method=method)
        fp1 = run_search(space, surrogate, cfg).fingerprint()
        fp2 = run_search(space, surrogate, cfg).fingerprint()
        assert fp1 == fp2

    def test_different_seeds_differ(self, space, surrogate):
        fp1 = run_search(space, surrogate, config(seed=1)).fingerprint()
        fp2 = run_search(space, surrogate, config(seed=2)).fingerprint()
        assert fp1 != fp2

    def test_different_methods_differ(self, space, surrogate):
        fps = {m: run_search(space, surrogate,
                             config(method=m)).fingerprint()
               for m in ("a3c", "rdm")}
        assert fps["a3c"] != fps["rdm"]

    @pytest.mark.verify
    @pytest.mark.chaos
    @pytest.mark.parametrize("method", ["a3c", "rdm"])
    def test_same_seed_under_light_chaos(self, space, surrogate, method):
        """Seeded fault injection is part of the trajectory: same seed
        must still give bit-identical fingerprints."""
        span = 20 * 60.0
        faults = FaultConfig(node_mtbf=4.0 * span,
                             node_repair_time=span / 10.0,
                             job_crash_prob=0.01, seed=5)
        cfg = config(method=method, faults=faults, batch_deadline=900.0)
        fp1 = run_search(space, surrogate, cfg).fingerprint()
        fp2 = run_search(space, surrogate, cfg).fingerprint()
        assert fp1 == fp2


@pytest.mark.verify
class TestResumeFingerprint:
    """ISSUE 3 acceptance: a checkpoint/resume run fingerprints
    identically to the uninterrupted same-seed run."""

    @pytest.mark.parametrize("method", ["a3c", "a2c", "rdm"])
    def test_resume_matches_uninterrupted(self, space, surrogate, method,
                                          tmp_path):
        cfg = config(method=method, minutes=30,
                     checkpoint_every_records=84,
                     journal_dir=os.fspath(tmp_path))
        log = CaptureLog()
        full = log.attach(NasSearch(space, surrogate, cfg,
                                    event_sink=log)).run()
        assert len(log.captures) >= 2

        # resume from a genuine mid-run generation (agents in flight)
        mid = log.checkpoint(len(log.captures) // 2)
        assert any(not a.done for a in mid.agents)
        resumed = NasSearch(space, surrogate,
                            config(method=method, minutes=30),
                            resume_from=mid).run()

        assert full.fingerprint() == resumed.fingerprint()
        assert len(full.records) == len(resumed.records)

    def test_checkpoint_fingerprint_survives_round_trip(self, space,
                                                        surrogate,
                                                        tmp_path):
        """A generation loaded with its journal, saved again and loaded
        again fingerprints as the first load did."""
        cfg = config(minutes=30, checkpoint_every_records=84,
                     journal_dir=os.fspath(tmp_path / "run"))
        log = CaptureLog()
        log.attach(NasSearch(space, surrogate, cfg, event_sink=log)).run()
        mid = len(log.captures) // 2
        ckpt = log.checkpoint(mid)
        events = read_journal(tmp_path / "run" / JOURNAL_NAME)
        path = CheckpointGenerations(tmp_path / "again").save(
            ckpt, journal_seq=watermarks(events)[mid])
        again, _integrity = load_generation(path.read_bytes(), events)
        assert checkpoint_fingerprint(ckpt) == checkpoint_fingerprint(again)
        assert checkpoint_fingerprint(ckpt)  # non-empty hex
