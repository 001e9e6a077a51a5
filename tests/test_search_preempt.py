"""Graceful preemption and crash-consistent checkpointing.

The robustness contract: a preempted run stops at the next iteration
boundary with a resumable checkpoint, and the resumed run is
bit-identical to the run that was never interrupted.  On disk the
checkpoint is a generation under the journal directory, published
crash-consistently (fsync'd tmp + atomic replace).
"""

import os
import signal
import threading

import pytest

from repro.events import (EVAL_DONE, PREEMPT, CallbackSink, RecordingSink,
                          TeeSink)
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig
from repro.search.chaos import ChaosEvalModel
from repro.search.journal import CheckpointGenerations


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_surrogate(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=seed)


CFG = dict(method="a3c", allocation=NodeAllocation(16, 3, 3),
           wall_time=1800.0, seed=3)


class TestPreemption:
    def test_preempt_then_resume_is_bit_identical(self, space):
        """Preempt after the 12th evaluation, resume from the captured
        checkpoint, and land on the uninterrupted run's fingerprint."""
        base = NasSearch(space, make_surrogate(space),
                         SearchConfig(**CFG)).run()
        assert base.num_evaluations > 12

        cfg = SearchConfig(**CFG, preemptible=True)
        count = [0]
        holder = []

        def on_event(ev):
            if ev.kind == EVAL_DONE:
                count[0] += 1
                if count[0] == 12:
                    holder[0].request_preemption("test")

        rec = RecordingSink()
        search = NasSearch(space, make_surrogate(space), cfg,
                           event_sink=TeeSink(rec, CallbackSink(on_event)))
        holder.append(search)
        res = search.run()

        assert res.preempted
        assert [e for e in rec.events if e.kind == PREEMPT]
        assert search.checkpoints, "no checkpoint captured at preemption"
        ckpt = search.checkpoints[-1]
        assert len(ckpt.records) <= 12
        assert res.num_evaluations < base.num_evaluations

        resumed = NasSearch(space, make_surrogate(space),
                            SearchConfig(**CFG),
                            resume_from=ckpt.round_trip()).run()
        assert resumed.fingerprint() == base.fingerprint()

    def test_unpreempted_preemptible_run_matches_baseline(self, space):
        """The preemption machinery (stop polling, boundary capture)
        must not perturb a run that is never actually preempted."""
        base = NasSearch(space, make_surrogate(space),
                         SearchConfig(**CFG)).run()
        armed = NasSearch(space, make_surrogate(space),
                          SearchConfig(**CFG, preemptible=True)).run()
        assert not armed.preempted
        assert armed.fingerprint() == base.fingerprint()

    def test_sigterm_stops_search_with_checkpoint(self, space):
        """A real SIGTERM mid-search flips the preemption flag and the
        run exits at the next boundary with a checkpoint in hand."""
        model = ChaosEvalModel(make_surrogate(space), eval_seconds=0.05)
        cfg = SearchConfig(method="a3c", allocation=NodeAllocation(10, 2, 3),
                           wall_time=3600.0, seed=1, backend="serial",
                           max_iterations=50, preemptible=True)
        search = NasSearch(space, model, cfg)
        prev_handler = signal.getsignal(signal.SIGTERM)
        timer = threading.Timer(0.6, os.kill, (os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            res = search.run()
        finally:
            timer.cancel()
        # the installed handler was removed again on exit
        assert signal.getsignal(signal.SIGTERM) is prev_handler
        if not res.preempted:
            pytest.skip("search finished before SIGTERM was delivered")
        assert search.checkpoints


class TestCheckpointDurability:
    @pytest.fixture()
    def ckpt(self, space):
        cfg = SearchConfig(**CFG, checkpoint_interval=600.0)
        search = NasSearch(space, make_surrogate(space), cfg,
                           event_sink=RecordingSink())
        search.run()
        assert search.checkpoints
        return search.checkpoints[-1]

    def test_save_leaves_no_tmp_residue(self, ckpt, tmp_path):
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(ckpt, journal_seq=0)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
        loaded, _integrity = gens.load_latest()
        assert loaded.fingerprint() == ckpt.fingerprint()

    def test_quarantine_survives_round_trip(self, ckpt):
        ckpt.quarantine = {0: [["combo_small", [1, 2, 3], 2, 1]],
                           2: [["combo_small", [0, 0, 1], 3, 0]]}
        back = ckpt.round_trip()
        assert back.quarantine == ckpt.quarantine
        # quarantine rides in the conditional health export
        assert "quarantine" in ckpt.to_json()["health"]

    def test_health_block_absent_without_incidents(self, ckpt):
        """Schema pin: a clean run's checkpoint JSON is unchanged — no
        health block unless restarts, rollbacks, or quarantine exist."""
        ckpt.quarantine = {}
        if ckpt.agent_restarts or ckpt.agent_rollbacks:
            pytest.skip("run recorded health incidents")
        assert "health" not in ckpt.to_json()
