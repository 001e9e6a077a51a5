"""End-to-end crash/resume tests for the durable search journal.

The crash here is simulated the way the crash-point fuzzer's SIGKILL
leaves the disk: the journal is truncated to its first ``k`` records and
every checkpoint generation captured after them is deleted.  Resume must
then reproduce the uninterrupted run bit-for-bit (determinism
fingerprint) without re-executing any journaled evaluation.  The
``crashfuzz``-marked test at the bottom runs the real thing — a
subprocess search SIGKILLed mid-journal via
:func:`repro.search.chaos.run` on its ``crashpoint`` scenario.
"""

import json
import multiprocessing
import os
import shutil
import zlib
from pathlib import Path

import pytest

from _checkpoint_common import (CaptureLog, assert_captures_rebuild,
                                checkpoint_v1_json, load_generation,
                                records_json)
from repro.events import BATCH_STATS, EVAL_DONE, RESTART, RUN, WORKER_SPAWN
from repro.evaluator.process import ProcConfig
from repro.health import GuardConfig
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.hpc.faults import FaultConfig
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig, chaos
from repro.search.chaos import crashpoint_child, journal_real_evals
from repro.search.journal import (GENERATIONS_DIR, JOURNAL_NAME,
                                  CheckpointGenerations, read_journal,
                                  read_records, resume_durable)


def run_durable(journal_dir, method="a3c", backend="serial"):
    """One durable search (first launch and relaunch alike) with the
    fuzzer's config; returns ``(result, search, counter)``, where
    ``counter.calls`` counts this process's reward-model executions."""
    return crashpoint_child(journal_dir, method=method, backend=backend)


def run_durable_captured(journal_dir, backend="serial"):
    """:func:`run_durable` (a3c) with a :class:`CaptureLog` on its
    search; returns ``(result, log)``."""
    log = CaptureLog()

    def attached(space, model, cfg):
        return log.attach(resume_durable(space, model, cfg, event_sink=log))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chaos, "resume_durable", attached)
        result, _search, _counter = run_durable(journal_dir, backend=backend)
    return result, log


def journal_lines(journal_dir) -> int:
    return len((Path(journal_dir) / JOURNAL_NAME).read_text().splitlines())


def crash_at(journal_dir, k: int) -> None:
    """Leave the directory as a SIGKILL at journal record ``k`` would:
    only the first ``k`` records survive, and with them only the
    checkpoint generations captured at or before record ``k``."""
    path = Path(journal_dir) / JOURNAL_NAME
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:k]))
    gen_dir = Path(journal_dir) / GENERATIONS_DIR
    if gen_dir.is_dir():
        for gen in list(gen_dir.iterdir()):
            data = json.loads(gen.read_text())
            if data["integrity"]["journal_seq"] > k:
                gen.unlink()


def surviving_checkpoint_seq(journal_dir) -> int:
    gen_dir = Path(journal_dir) / GENERATIONS_DIR
    if not gen_dir.is_dir():
        return 0
    seqs = [json.loads(p.read_text())["integrity"]["journal_seq"]
            for p in gen_dir.iterdir()]
    return max(seqs, default=0)


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """Uninterrupted durable runs, one per method, shared by the crash
    scenarios below (each scenario copies the directory and corrupts
    the copy)."""
    out = {}
    for method in ("a3c", "a2c", "rdm"):
        directory = tmp_path_factory.mktemp(f"base-{method}")
        result, search, counter = run_durable(directory, method=method)
        out[method] = {
            "dir": directory,
            "fingerprint": result.fingerprint(),
            "real": journal_real_evals(directory),
            "lines": journal_lines(directory),
            "evals": result.num_evaluations,
            "counters": broker_counters(search),
        }
    return out


def broker_counters(search):
    return {aid: (ev.num_submitted, ev.num_cache_hits, ev.num_failed,
                  len(ev.cache) if ev.cache is not None else 0)
            for aid, ev in enumerate(search.evaluators)}


class TestTruncateCrashResume:
    @pytest.mark.parametrize("method", ("a3c", "a2c", "rdm"))
    def test_mid_journal_crash_resumes_bit_identical(self, method,
                                                     baselines, tmp_path):
        base = baselines[method]
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        k = base["lines"] // 2
        crash_at(work, k)
        result, search, counter = run_durable(work, method=method)
        assert result.fingerprint() == base["fingerprint"]
        # zero re-evaluation: real executions across crash + resume
        # equal the uninterrupted run's, and the reward model was only
        # invoked for the journal deficit
        assert journal_real_evals(work) == base["real"]
        assert counter.calls == base["real"] - real_evals_before(work, k)
        assert all(ev.replay_pending() == 0 for ev in search.evaluators)

    @pytest.mark.parametrize("method", ("a3c", "a2c", "rdm"))
    def test_resume_killed_five_records_in(self, method, baselines,
                                           tmp_path):
        """Crash at half the journal, resume, kill the resumed run five
        records in, and resume again.  The killed resume had not yet
        re-served most journaled completions, so a replay cut at its
        ``run`` event, as the record fold cuts, would lose them and
        re-execute them; ``build_replay`` keeps every one."""
        base = baselines[method]
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        k = base["lines"] // 2
        crash_at(work, k)
        run_durable(work, method=method)
        crash_at(work, k + 5)
        result, search, counter = run_durable(work, method=method)
        assert result.fingerprint() == base["fingerprint"]
        assert journal_real_evals(work) == base["real"]
        assert counter.calls == base["real"] - real_evals_before(work, k + 5)
        assert all(ev.replay_pending() == 0 for ev in search.evaluators)

    def test_journal_with_nonfinite_keys_rebuilds_and_resumes(
            self, baselines, tmp_path):
        """Older journals carry ``nonfinite`` (the flag of a former
        reward-training guard) in every ``eval-done``; new ones do not.
        Such a journal still rebuilds the run's records and resumes to
        the uninterrupted fingerprint with nothing re-executed."""
        base = baselines["a3c"]
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        path = work / JOURNAL_NAME
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        done = [r for r in records if r["ev"]["kind"] == EVAL_DONE]
        assert done and all("nonfinite" not in r["ev"]["payload"]
                            for r in done)
        for rec in done:
            rec["ev"]["payload"]["nonfinite"] = False
            rec["crc"] = zlib.crc32(json.dumps(
                rec["ev"], sort_keys=True,
                separators=(",", ":")).encode("utf-8"))
        path.write_text("".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in records))
        events = read_journal(path)
        assert events.num_skipped == 0
        assert records_json(read_records(events)[0]) == \
            records_json(read_records(read_journal(
                base["dir"] / JOURNAL_NAME))[0])
        k = len(lines) // 2
        crash_at(work, k)
        result, search, counter = run_durable(work)
        assert result.fingerprint() == base["fingerprint"]
        assert journal_real_evals(work) == base["real"]
        assert counter.calls == base["real"] - real_evals_before(work, k)

    def test_crash_before_first_checkpoint_replays_from_start(
            self, baselines, tmp_path):
        base = baselines["a3c"]
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        # crash one record before the first checkpoint generation: no
        # checkpoint survives, so resume replays the journal from the
        # very start
        gen_dir = base["dir"] / GENERATIONS_DIR
        first_seq = min(json.loads(p.read_text())["integrity"]["journal_seq"]
                        for p in gen_dir.iterdir())
        k = first_seq - 1
        crash_at(work, k)
        assert surviving_checkpoint_seq(work) == 0
        result, search, _counter = run_durable(work)
        assert search.num_replay_loaded == real_evals_before(work, k) > 0
        assert result.fingerprint() == base["fingerprint"]
        assert journal_real_evals(work) == base["real"]

    def test_two_successive_crashes(self, baselines, tmp_path):
        """Crash, resume, crash the resumed run, resume again: the
        ``replayed=True`` re-emissions must not double-feed the second
        resume, and the total real-execution count stays pinned."""
        base = baselines["a3c"]
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        crash_at(work, base["lines"] // 3)
        result, _search, _counter = run_durable(work)
        assert result.fingerprint() == base["fingerprint"]
        crash_at(work, int(journal_lines(work) * 0.8))
        result, log = run_durable_captured(work)
        assert result.fingerprint() == base["fingerprint"]
        assert journal_real_evals(work) == base["real"]
        assert all(ev.replay_pending() == 0
                   for ev in log.search.evaluators)
        # the three-segment journal rebuilds the last segment's
        # generations and the final records exactly
        events = read_journal(work / JOURNAL_NAME)
        assert sum(e.kind == RUN for e in events) == 3
        assert assert_captures_rebuild(log, events)
        assert records_json(read_records(events)[0]) == \
            records_json(result.records)

    def test_v1_generation_resumes_bit_identically(self, baselines,
                                                   tmp_path):
        """Generations that earlier versions wrote (version 1, records
        and caches embedded) still resume exactly, with no journal
        rebuild."""
        base = baselines["a3c"]
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        k = base["lines"] // 2
        crash_at(work, k)
        gens = sorted((work / GENERATIONS_DIR).iterdir())
        assert gens, "scenario needs a surviving generation"
        events = read_journal(work / JOURNAL_NAME)
        for path in gens:
            ckpt, integrity = load_generation(path.read_bytes(), events)
            mark = integrity["journal_seq"]
            data = checkpoint_v1_json(ckpt)
            data["integrity"] = {
                "sha256": CheckpointGenerations._digest(data),
                "journal_seq": mark}
            path.write_text(json.dumps(data))
        result, search, counter = run_durable(work)
        assert result.fingerprint() == base["fingerprint"]
        assert journal_real_evals(work) == base["real"]
        assert counter.calls == base["real"] - real_evals_before(work, k)
        assert all(ev.replay_pending() == 0 for ev in search.evaluators)

    def test_corrupt_newest_generation_falls_back(self, baselines,
                                                  tmp_path, caplog):
        """Bit rot in the newest checkpoint generation costs one
        generation, not the run: resume falls back to N-1 (with a
        logged warning) and still converges to the same fingerprint."""
        base = baselines["a3c"]
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        # crash just after the second checkpoint so exactly two
        # generations survive
        seqs = sorted(json.loads(p.read_text())["integrity"]["journal_seq"]
                      for p in (base["dir"] / GENERATIONS_DIR).iterdir())
        assert len(seqs) >= 2, "scenario needs two checkpoint generations"
        crash_at(work, seqs[1])
        gens = sorted((work / GENERATIONS_DIR).iterdir())
        assert len(gens) == 2
        data = json.loads(gens[-1].read_text())
        data["time"] = -1.0
        gens[-1].write_text(json.dumps(data))
        with caplog.at_level("WARNING", logger="repro.search.journal"):
            result, _search, _counter = run_durable(work)
        assert any("falling back" in rec.message for rec in caplog.records)
        assert result.fingerprint() == base["fingerprint"]
        assert journal_real_evals(work) == base["real"]


def real_evals_before(journal_dir, k: int) -> int:
    """Real executions among the first ``k`` surviving records."""
    events = read_journal(Path(journal_dir) / JOURNAL_NAME)
    return sum(1 for e in list(events)[:k]
               if e.kind == EVAL_DONE and "arch" in e.payload
               and not e.payload.get("replayed"))


class TestCounterRestoration:
    """Satellite: broker counters and batch tallies after resume match
    the uninterrupted run exactly, on every backend."""

    @pytest.mark.parametrize("backend", ("serial", "thread"))
    def test_counters_match_uninterrupted(self, backend, baselines,
                                          tmp_path):
        base = (baselines["a3c"] if backend == "serial"
                else self._baseline(tmp_path / "base", backend))
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        crash_at(work, base["lines"] // 2)
        result, search, _counter = run_durable(work, backend=backend)
        assert result.fingerprint() == base["fingerprint"]
        assert result.num_evaluations == base["evals"]
        assert broker_counters(search) == base["counters"]

    @pytest.mark.proc
    def test_counters_match_uninterrupted_process(self, tmp_path):
        base = self._baseline(tmp_path / "base", "process")
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        crash_at(work, base["lines"] // 2)
        result, search, _counter = run_durable(work, backend="process")
        assert result.fingerprint() == base["fingerprint"]
        assert result.num_evaluations == base["evals"]
        assert broker_counters(search) == base["counters"]

    def _baseline(self, directory, backend):
        result, search, _counter = run_durable(directory, backend=backend)
        return {"dir": directory, "fingerprint": result.fingerprint(),
                "lines": journal_lines(directory),
                "evals": result.num_evaluations,
                "counters": broker_counters(search)}

    def test_batch_stats_suffix_matches(self, baselines, tmp_path):
        """The resumed run's re-emitted per-batch tallies are exactly a
        suffix of the uninterrupted run's tally stream (the resumed
        window starts at the checkpointed agent boundaries, which may
        sit a few records before the generation's own journal stamp).
        Plan-cache hit/miss splits are excluded by design: the resumed
        process starts with a cold plan cache."""
        base = baselines["a3c"]
        work = tmp_path / "run"
        shutil.copytree(base["dir"], work)
        k = base["lines"] // 2
        crash_at(work, k)
        run_durable(work)

        def tallies(directory, start):
            events = list(read_journal(Path(directory) / JOURNAL_NAME))
            return [(e.agent_id, e.payload["batch"], e.payload["distinct"])
                    for e in events[start:] if e.kind == BATCH_STATS]

        resumed = tallies(work, k)
        full = tallies(base["dir"], 0)
        assert resumed, "resumed run re-emitted no batch tallies"
        assert resumed == full[-len(resumed):]


class TestExactRebuild:
    """A version-2 generation loaded with its journal equals what the
    search held when it was captured — records in order, each agent's
    cache entries in order — and its own saved state, and the journal's
    records equal the result's as a list, on every backend and after a
    resurrection."""

    @pytest.mark.parametrize("backend", [
        "serial", "thread", "balsam",
        pytest.param("process", marks=pytest.mark.proc)])
    def test_generations_rebuild_the_capture(self, backend, tmp_path):
        result, log = run_durable_captured(tmp_path / "run", backend=backend)
        events = read_journal(tmp_path / "run" / JOURNAL_NAME)
        assert assert_captures_rebuild(log, events)
        assert records_json(read_records(events)[0]) == \
            records_json(result.records)

    def test_rebuild_after_a_resurrection(self, tmp_path):
        space = combo_small()
        cfg = SearchConfig(
            method="a3c", allocation=NodeAllocation(32, 4, 3),
            wall_time=40 * 60.0, seed=1,
            faults=FaultConfig(nan_grad_prob=0.05, exploding_loss_prob=0.02,
                               corrupt_delta_prob=0.05, seed=3),
            guard=GuardConfig(mode="recover"), max_restarts=3,
            journal_dir=os.fspath(tmp_path / "run"),
            checkpoint_every_records=24)
        log = CaptureLog()
        result = log.attach(NasSearch(space, chaos._surrogate(space), cfg,
                                      event_sink=log)).run()
        events = read_journal(tmp_path / "run" / JOURNAL_NAME)
        assert any(e.kind == RESTART for e in events)
        assert assert_captures_rebuild(log, events)
        assert records_json(read_records(events)[0]) == \
            records_json(result.records)


@pytest.mark.proc
def test_process_pool_starts_with_the_run(tmp_path):
    """A process-backend search that is built but not run — fresh, or
    rebuilt by ``resume_durable`` — starts no worker and journals
    nothing; once it runs, every ``worker-spawn`` follows that
    segment's ``run`` event."""
    space = combo_small()
    model = chaos.ChaosEvalModel(chaos._surrogate(space), seed=3)
    cfg = SearchConfig(method="a3c", allocation=NodeAllocation(10, 2, 3),
                       wall_time=3600.0, seed=3, backend="process",
                       max_iterations=2, proc=ProcConfig(workers=2),
                       journal_dir=os.fspath(tmp_path),
                       checkpoint_every_records=6)
    before = set(multiprocessing.active_children())

    def new_children():
        return set(multiprocessing.active_children()) - before

    NasSearch(space, model, cfg).journal.close()
    search = resume_durable(space, model, cfg)
    assert not new_children()
    assert read_journal(tmp_path / JOURNAL_NAME) == []
    search.run()
    kinds = [e.kind for e in read_journal(tmp_path / JOURNAL_NAME)]
    assert kinds[0] == RUN and WORKER_SPAWN in kinds
    # a second segment: killed halfway, rebuilt, then run
    k = len(kinds) // 2
    crash_at(tmp_path, k)
    search = resume_durable(space, model, cfg)
    assert not new_children()
    assert len(read_journal(tmp_path / JOURNAL_NAME)) == k
    search.run()
    kinds = [e.kind for e in read_journal(tmp_path / JOURNAL_NAME)]
    assert kinds[k] == RUN and WORKER_SPAWN in kinds[k:]
    assert not new_children()


class TestBalsamCheckpointOnly:
    def test_balsam_resumes_from_checkpoint_without_replay(self, tmp_path):
        """Virtual-time searches journal and checkpoint like everyone
        else but skip evaluation replay: the checkpoint, rebuilt from
        the journal, resumes them deterministically."""
        base_dir = tmp_path / "base"
        result, _search, _counter = run_durable(base_dir, backend="balsam")
        base_fp = result.fingerprint()
        work = tmp_path / "run"
        shutil.copytree(base_dir, work)
        crash_at(work, journal_lines(base_dir) // 2)
        result, search, _counter = run_durable(work, backend="balsam")
        assert search.num_replay_loaded == 0
        assert result.fingerprint() == base_fp


class TestFreshRunGuard:
    """A fresh run must not append to a directory that holds a run:
    killed before its first checkpoint, it would resume the *previous*
    run's newest generation (seed, method, space and agent count all
    validate) and continue that run under the new reward model."""

    @staticmethod
    def fresh(journal_dir, landscape_seed):
        space = combo_small()
        reward = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                                 TrainingCostModel.combo_paper(), epochs=1,
                                 train_fraction=0.1, timeout=600.0,
                                 log_params_opt=6.5, seed=landscape_seed)
        cfg = SearchConfig(method="a3c", allocation=NodeAllocation(10, 2, 3),
                           wall_time=3600.0, seed=3, backend="serial",
                           max_iterations=4,
                           journal_dir=os.fspath(journal_dir),
                           checkpoint_every_records=6)
        return NasSearch(space, reward, cfg)

    @staticmethod
    def files(directory):
        return {p: p.read_bytes() for p in Path(directory).rglob("*")
                if p.is_file()}

    def test_second_fresh_run_is_refused(self, tmp_path):
        self.fresh(tmp_path, landscape_seed=7).run()
        before = self.files(tmp_path)
        assert (tmp_path / GENERATIONS_DIR).is_dir()
        with pytest.raises(ValueError, match="resume_durable"):
            self.fresh(tmp_path, landscape_seed=8)
        assert self.files(tmp_path) == before     # untouched

    def test_generation_file_alone_marks_a_run(self, tmp_path):
        # an existing but empty journal holds no run: accepted
        (tmp_path / JOURNAL_NAME).touch()
        self.fresh(tmp_path, landscape_seed=7).journal.close()
        # the residue of a save torn before its rename is enough
        (tmp_path / GENERATIONS_DIR).mkdir()
        (tmp_path / GENERATIONS_DIR / "ckpt-00000001.json.tmp").write_text(
            '{"torn": ')
        with pytest.raises(ValueError, match="resume_durable"):
            self.fresh(tmp_path, landscape_seed=8)


@pytest.mark.crashfuzz
def test_crashpoint_fuzzer_smoke():
    """The real thing, bounded: SIGKILL a journaled subprocess search at
    one stratified journal record, resume, and hold both durability
    promises (bit-identical fingerprint, zero re-evaluation)."""
    rows = chaos.run("crashpoint", ("a3c",), points=1,
                     backends=("serial",))
    assert rows and rows[0]["kills_landed"] >= 1
    assert chaos.check("crashpoint", rows) == []
