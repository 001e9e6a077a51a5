"""Graceful preemption and crash-consistent checkpointing.

The robustness contract: a preempted run stops at the next iteration
boundary with a resumable checkpoint, and the resumed run is
bit-identical to the run that was never interrupted.  The checkpoint is
a generation under the journal directory, published crash-consistently
(fsync'd tmp + atomic replace); a run without a journal stops and saves
nothing.
"""

import os
import signal
import threading

import pytest

from _checkpoint_common import (CaptureLog, checkpoint_fingerprint,
                                load_generation, watermarks)
from repro.events import (CHECKPOINT, EVAL_DONE, PREEMPT, CallbackSink,
                          RecordingSink, TeeSink)
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.hpc.sim import Timeout
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig
from repro.search.chaos import ChaosEvalModel
from repro.search.journal import (GENERATIONS_DIR, JOURNAL_NAME,
                                  CheckpointGenerations, read_journal,
                                  resume_durable)


@pytest.fixture(scope="module")
def space():
    return combo_small()


def make_surrogate(space, seed=7):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=seed)


CFG = dict(method="a3c", allocation=NodeAllocation(16, 3, 3),
           wall_time=1800.0, seed=3)


def newest_generation(journal_dir):
    """The newest checkpoint generation under ``journal_dir``, loaded
    with its journal."""
    journal_dir = os.fspath(journal_dir)
    return CheckpointGenerations(
        os.path.join(journal_dir, GENERATIONS_DIR)).load_latest(
            read_journal(os.path.join(journal_dir, JOURNAL_NAME)))[0]


def preempt_at_12th_eval(holder):
    """A sink that asks ``holder[0]`` to preempt at its 12th
    completed evaluation."""
    count = [0]

    def on_event(ev):
        if ev.kind == EVAL_DONE:
            count[0] += 1
            if count[0] == 12:
                holder[0].request_preemption("test")

    return CallbackSink(on_event)


class TestPreemption:
    def test_preempt_then_resume_is_bit_identical(self, space, tmp_path):
        """Preempt after the 12th evaluation, resume from the generation
        saved at the preemption, and land on the uninterrupted run's
        fingerprint."""
        base = NasSearch(space, make_surrogate(space),
                         SearchConfig(**CFG)).run()
        assert base.num_evaluations > 12

        cfg = SearchConfig(**CFG, preemptible=True,
                           journal_dir=os.fspath(tmp_path))
        holder = []
        rec = RecordingSink()
        search = NasSearch(space, make_surrogate(space), cfg,
                           event_sink=TeeSink(rec,
                                              preempt_at_12th_eval(holder)))
        holder.append(search)
        res = search.run()

        assert res.preempted
        assert [e for e in rec.events if e.kind == PREEMPT]
        assert [e for e in rec.events if e.kind == CHECKPOINT], \
            "no checkpoint captured at preemption"
        ckpt = newest_generation(tmp_path)
        assert len(ckpt.records) <= 12
        assert res.num_evaluations < base.num_evaluations

        resumed = NasSearch(space, make_surrogate(space),
                            SearchConfig(**CFG), resume_from=ckpt).run()
        assert resumed.fingerprint() == base.fingerprint()

    def test_preempt_without_a_journal_saves_nothing(self, space):
        """Without a journal a preempted run still stops and emits
        ``preempt``, but captures nothing: a checkpoint is only ever a
        saved generation."""
        holder = []
        rec = RecordingSink()
        search = NasSearch(space, make_surrogate(space),
                           SearchConfig(**CFG, preemptible=True),
                           event_sink=TeeSink(rec,
                                              preempt_at_12th_eval(holder)))
        holder.append(search)
        assert search.run().preempted
        kinds = [e.kind for e in rec.events]
        assert PREEMPT in kinds and CHECKPOINT not in kinds
        # nothing reads an iteration boundary, so none was taken
        assert search._boundaries == {}

    @pytest.mark.parametrize("backend", [
        "serial", pytest.param("process", marks=pytest.mark.proc)])
    def test_preempt_after_a_barrier_resumes_bit_identically(
            self, space, backend, tmp_path):
        """On the serial and process backends the agent that releases
        an a2c barrier evaluates its next batch within the same step.
        A preemption landing on one of those evaluations must still
        capture every agent at a boundary past the applied round, or
        the resume pushes that round twice."""
        kwargs = dict(CFG, method="a2c", backend=backend, max_iterations=10)
        base = NasSearch(space, make_surrogate(space),
                         SearchConfig(**kwargs)).run()
        holder = []
        search = NasSearch(space, make_surrogate(space),
                           SearchConfig(**kwargs, preemptible=True,
                                        journal_dir=os.fspath(tmp_path)),
                           event_sink=preempt_at_12th_eval(holder))
        holder.append(search)
        assert search.run().preempted
        resumed = NasSearch(space, make_surrogate(space),
                            SearchConfig(**kwargs),
                            resume_from=newest_generation(tmp_path)).run()
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

    def test_sigterm_stops_search_with_checkpoint(self, space, tmp_path):
        """A real SIGTERM mid-search flips the preemption flag and the
        run exits at the next boundary with a checkpoint saved."""
        model = ChaosEvalModel(make_surrogate(space), eval_seconds=0.05)
        cfg = SearchConfig(method="a3c", allocation=NodeAllocation(10, 2, 3),
                           wall_time=3600.0, seed=1, backend="serial",
                           max_iterations=50, preemptible=True,
                           journal_dir=os.fspath(tmp_path))
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
        assert CheckpointGenerations(tmp_path / GENERATIONS_DIR).paths()


class TestResumedPreemption:
    """A restored boundary is the agent's current boundary: a resumed
    agent still asleep towards its boundary time is checkpointed at it,
    not dropped."""

    @pytest.mark.parametrize("method", ["a3c", "a2c", "rdm"])
    def test_preempt_before_wake_keeps_boundaries(self, space, method,
                                                   tmp_path):
        kwargs = dict(CFG, method=method)
        log = CaptureLog()
        base = log.attach(NasSearch(
            space, make_surrogate(space),
            SearchConfig(**kwargs, checkpoint_every_records=24,
                         journal_dir=os.fspath(tmp_path / "base")),
            event_sink=log)).run()
        n = len(log.captures) // 2
        mid = log.checkpoint(n)
        live = {a.agent_id: a.boundary for a in mid.agents
                if not a.done and a.boundary is not None}
        assert live and min(b.time for b in live.values()) > 60.0

        # the directory as a run killed right after capture n left it:
        # the journal up to that capture, and its generation alone
        run = tmp_path / "run"
        (run / GENERATIONS_DIR).mkdir(parents=True)
        events = read_journal(tmp_path / "base" / JOURNAL_NAME)
        mark = watermarks(events)[n]
        lines = (tmp_path / "base" / JOURNAL_NAME).read_text().splitlines(
            keepends=True)
        (run / JOURNAL_NAME).write_text("".join(lines[:mark]))
        (run / GENERATIONS_DIR / "ckpt-00000001.json").write_bytes(
            log.captures[n].generation)
        cfg = SearchConfig(**kwargs, journal_dir=os.fspath(run))
        resumed = resume_durable(space, make_surrogate(space),
                                 SearchConfig(**kwargs, preemptible=True,
                                              journal_dir=os.fspath(run)))

        def preempt_at_60s():
            yield Timeout(60.0)
            resumed.request_preemption("test")

        resumed.sim.process(preempt_at_60s(), name="preempt")
        assert resumed.run().preempted
        ckpt = newest_generation(run)
        kept = {a.agent_id: a.boundary for a in ckpt.agents
                if a.boundary is not None}
        assert sorted(kept) == sorted(live)
        assert all(kept[i].iteration == live[i].iteration for i in live)

        final = resume_durable(space, make_surrogate(space), cfg).run()
        assert final.fingerprint() == base.fingerprint()
        assert final.num_evaluations == base.num_evaluations


class TestCheckpointDurability:
    @pytest.fixture()
    def ckpt(self, space, tmp_path):
        cfg = SearchConfig(**CFG, checkpoint_every_records=24,
                           journal_dir=os.fspath(tmp_path / "run"))
        NasSearch(space, make_surrogate(space), cfg).run()
        return newest_generation(tmp_path / "run")

    def test_save_leaves_no_tmp_residue(self, ckpt, tmp_path):
        events = read_journal(tmp_path / "run" / JOURNAL_NAME)
        gens = CheckpointGenerations(tmp_path / "gens")
        path = gens.save(ckpt, journal_seq=watermarks(events)[-1])
        assert path.exists()
        assert list((tmp_path / "gens").glob("*.tmp")) == []
        loaded, _integrity = gens.load_latest(events)
        assert checkpoint_fingerprint(loaded) == \
            checkpoint_fingerprint(ckpt)

    def test_quarantine_survives_round_trip(self, ckpt, tmp_path):
        ckpt.quarantine = {0: [["combo_small", [1, 2, 3], 2, 1]],
                           2: [["combo_small", [0, 0, 1], 3, 0]]}
        events = read_journal(tmp_path / "run" / JOURNAL_NAME)
        path = CheckpointGenerations(tmp_path / "gens").save(
            ckpt, journal_seq=watermarks(events)[-1])
        back, _integrity = load_generation(path.read_bytes(), events)
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
