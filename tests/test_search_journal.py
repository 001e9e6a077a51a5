"""Unit tests for the durability layer (repro.search.journal).

The write-ahead journal, the checkpoint generations, and the shared
atomic-write primitives are each tested in isolation here; the
end-to-end crash/resume promises (bit-identical fingerprints, zero
re-evaluation) live in ``test_search_journal_resume.py`` and the
crash-point fuzzer (``repro.search.chaos --profile crashpoint``).
"""

import json
import os

import pytest

from repro.events import EVAL_DONE, PUSH, RESTART, SUBMIT, SearchEvent, emit
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig
from repro.search.journal import (CheckpointGenerations, JournalWriter,
                                  build_replay, read_journal, resume_durable)
from repro.util import (FsyncPolicy, atomic_write_json, atomic_write_text)


def some_events(n=3):
    kinds = [SUBMIT, EVAL_DONE, PUSH]
    return [SearchEvent(kinds[i % 3], float(i), agent_id=i % 2,
                        iteration=i, payload={"i": i, "x": 0.125 * i})
            for i in range(n)]


class TestAtomicIO:
    def test_atomic_write_text_overwrites(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert not path.with_suffix(".txt.tmp").exists()

    def test_atomic_write_json_kwargs_pass_through(self, tmp_path):
        path = atomic_write_json(tmp_path / "a.json", {"b": 1, "a": 2},
                                 sort_keys=True, separators=(",", ":"))
        assert path.read_text() == '{"a":2,"b":1}'

    def test_fsync_policy_never(self, tmp_path):
        with open(tmp_path / "f", "w") as fh:
            policy = FsyncPolicy(None)
            assert not any(policy.tick(fh.fileno()) for _ in range(5))

    def test_fsync_policy_every_nth(self, tmp_path):
        with open(tmp_path / "f", "w") as fh:
            policy = FsyncPolicy(2)
            assert [policy.tick(fh.fileno()) for _ in range(4)] \
                == [False, True, False, True]

    def test_fsync_policy_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FsyncPolicy(0)


class TestJournalWriter:
    def test_round_trip_and_sequence(self, tmp_path):
        # flush-only, and fsync forced after every second record: the
        # policy changes durability, never the records
        for fsync_every in (None, 2):
            path = tmp_path / f"journal-{fsync_every}.jsonl"
            writer = JournalWriter(path, fsync_every=fsync_every)
            assert writer._policy.every == fsync_every
            seqs = [writer.append(ev) for ev in some_events(4)]
            writer.close()
            assert seqs == [1, 2, 3, 4]
            back = read_journal(path)
            assert [e.to_dict() for e in back] \
                == [e.to_dict() for e in some_events(4)]
            assert back.num_skipped == 0

    def test_crc_detects_interior_bit_flip(self, tmp_path, caplog):
        """A flipped byte that keeps the JSON valid still fails the
        record CRC, and a line that is not JSON at all fails the parse:
        either record is skipped with a warning and counted, the rest of
        the journal survives."""
        corruptions = {
            "bit-flip": lambda line: line.replace('"x":0.125', '"x":0.625'),
            "not-json": lambda line: "not json",
        }
        for name, corrupt in corruptions.items():
            path = tmp_path / f"{name}.jsonl"
            writer = JournalWriter(path)
            for ev in some_events(3):
                writer.append(ev)
            writer.close()
            lines = path.read_text().splitlines()
            lines[1] = corrupt(lines[1])
            path.write_text("\n".join(lines) + "\n")
            caplog.clear()
            with caplog.at_level("WARNING", logger="repro.search.journal"):
                back = read_journal(path)
            assert [e.kind for e in back] == [SUBMIT, PUSH], name
            assert back.num_skipped == 1, name
            assert any("line 2" in rec.message for rec in caplog.records)

    def test_torn_tail_dropped_on_read(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter(path)
        for ev in some_events(2):
            writer.append(ev)
        writer.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 3, "crc": 1, "ev": {"kind"')   # crash mid-write
        back = read_journal(path)
        assert len(back) == 2
        assert back.num_skipped == 0          # expected crash residue

    def test_reopen_repairs_tail_and_continues_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter(path)
        for ev in some_events(3):
            writer.append(ev)
        writer.close()
        with open(path, "a") as fh:
            fh.write('{"seq": 4, "crc": 1, "ev"')            # torn record
        writer = JournalWriter(path)          # the relaunch
        assert writer.seq == 3                # fragment truncated away
        writer.append(some_events(1)[0])
        writer.close()
        raw = [json.loads(line) for line in path.read_text().splitlines()]
        assert [rec["seq"] for rec in raw] == [1, 2, 3, 4]

    def test_append_after_close_raises(self, tmp_path):
        writer = JournalWriter(tmp_path / "journal.jsonl")
        writer.close()
        with pytest.raises(ValueError):
            writer.append(some_events(1)[0])

    def test_writer_is_an_event_sink(self, tmp_path):
        """``emit`` appends one flushed record per event (readable while
        the writer is still open), and closing twice is harmless."""
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter(path)
        emit(writer, SUBMIT, 0.0, 1, count=4)
        assert len(read_journal(path)) == 1
        emit(writer, EVAL_DONE, 1.0, 1, reward=0.5, failed=False)
        writer.close()
        writer.close()
        assert [e.kind for e in read_journal(path)] == [SUBMIT, EVAL_DONE]
        assert writer.seq == 2


def make_checkpoint():
    """A deterministic mid-run checkpoint (same idiom as the golden
    wire-format test): agents in flight, boundaries and caches live."""
    space = combo_small()
    surrogate = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                                TrainingCostModel.combo_paper(),
                                epochs=1, train_fraction=0.1,
                                timeout=600.0, seed=7)
    cfg = SearchConfig(method="a3c", allocation=NodeAllocation(32, 4, 3),
                       wall_time=30 * 60.0, seed=1,
                       checkpoint_interval=300.0)
    search = NasSearch(space, surrogate, cfg)
    search.run()
    return search.checkpoints[len(search.checkpoints) // 2]


@pytest.fixture(scope="module")
def ckpt():
    return make_checkpoint()


class TestCheckpointGenerations:
    def test_save_load_round_trip(self, tmp_path, ckpt):
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(ckpt, journal_seq=17)
        assert path.name == "ckpt-00000001.json"
        loaded, integrity = gens.load_latest()
        assert loaded.fingerprint() == ckpt.fingerprint()
        assert integrity["journal_seq"] == 17

    def test_generation_is_pinned_v1_plus_integrity(self, tmp_path, ckpt):
        """The on-disk generation is exactly the pinned checkpoint v1
        payload plus one additive ``integrity`` key — guard-off readers
        of the v1 schema keep working on generation files."""
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(ckpt, journal_seq=3)
        data = json.loads(path.read_text())
        integrity = data.pop("integrity")
        assert set(integrity) == {"sha256", "journal_seq"}
        assert data == json.loads(json.dumps(ckpt.to_json()))

    def test_prune_keeps_newest(self, tmp_path, ckpt):
        gens = CheckpointGenerations(tmp_path, keep=3)
        for seq in range(5):
            gens.save(ckpt, journal_seq=seq)
        names = [p.name for p in gens.paths()]
        assert names == ["ckpt-00000003.json", "ckpt-00000004.json",
                         "ckpt-00000005.json"]
        assert gens.load_latest()[1]["journal_seq"] == 4

    def test_corrupt_newest_falls_back_with_warning(self, tmp_path, ckpt,
                                                    caplog):
        gens = CheckpointGenerations(tmp_path)
        gens.save(ckpt, journal_seq=1)
        newest = gens.save(ckpt, journal_seq=2)
        data = json.loads(newest.read_text())
        data["time"] = -12345.0               # bit rot after the sha stamp
        newest.write_text(json.dumps(data))
        with caplog.at_level("WARNING", logger="repro.search.journal"):
            loaded, integrity = gens.load_latest()
        assert loaded.fingerprint() == ckpt.fingerprint()
        assert integrity["journal_seq"] == 1
        assert any("falling back" in rec.message for rec in caplog.records)

    def test_torn_newest_falls_back(self, tmp_path, ckpt):
        """Crash residue: a torn newest generation is discarded, and the
        stale ``.tmp`` of a save that died before its rename is never
        read and does not block the next save."""
        gens = CheckpointGenerations(tmp_path)
        gens.save(ckpt, journal_seq=1)
        newest = gens.save(ckpt, journal_seq=2)
        newest.write_bytes(newest.read_bytes()[:100])   # torn mid-write
        (tmp_path / "ckpt-00000003.json.tmp").write_text('{"torn": ')
        assert gens.load_latest()[1]["journal_seq"] == 1
        assert gens.save(ckpt, journal_seq=3).name == "ckpt-00000003.json"
        assert list(tmp_path.glob("*.tmp")) == []
        assert gens.load_latest()[1]["journal_seq"] == 3

    def test_no_surviving_generation_returns_none(self, tmp_path, ckpt,
                                                  caplog):
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(ckpt, journal_seq=1)
        path.write_text("garbage")
        with caplog.at_level("WARNING", logger="repro.search.journal"):
            assert gens.load_latest() is None

    def test_empty_directory(self, tmp_path):
        gens = CheckpointGenerations(tmp_path / "missing")
        assert gens.paths() == []
        assert gens.load_latest() is None


def eval_done(agent_id, arch_dict, reward=0.5, replayed=False, time=1.0):
    payload = {"arch": arch_dict, "reward": reward, "duration": 2.0,
               "params": 100, "failed": False}
    if replayed:
        payload["replayed"] = True
    return SearchEvent(EVAL_DONE, time, agent_id=agent_id, payload=payload)


class TestBuildReplay:
    def arch(self, space, rng_seed):
        import numpy as np
        rng = np.random.default_rng(rng_seed)
        return space.random_architecture(rng)

    def test_groups_by_agent_and_preserves_order(self):
        space = combo_small()
        a0 = self.arch(space, 0).to_dict()
        a1 = self.arch(space, 1).to_dict()
        replay = build_replay([eval_done(0, a0, reward=0.1),
                               eval_done(1, a1, reward=0.2),
                               eval_done(0, a1, reward=0.3)], None)
        assert sorted(replay) == [0, 1]
        assert [e.reward for e in replay[0]] == [0.1, 0.3]
        assert [e.reward for e in replay[1]] == [0.2]

    def test_skips_replayed_and_archless_records(self):
        space = combo_small()
        a0 = self.arch(space, 0).to_dict()
        events = [eval_done(0, a0, replayed=True),
                  SearchEvent(EVAL_DONE, 1.0, agent_id=0,
                              payload={"reward": 0.5}),       # no arch
                  eval_done(0, a0, reward=0.9)]
        replay = build_replay(events, None)
        assert [e.reward for e in replay[0]] == [0.9]

    def test_restart_truncates_to_real_evals(self):
        """An in-run resurrection trimmed the agent's records; resume
        must apply the same trim so post-restart re-executions in the
        stream are the continuation, not duplicates."""
        space = combo_small()
        archs = [self.arch(space, i).to_dict() for i in range(3)]
        events = [eval_done(0, archs[0], reward=0.1),
                  eval_done(0, archs[1], reward=0.2),
                  SearchEvent(RESTART, 5.0, agent_id=0,
                              payload={"real_evals": 1}),
                  eval_done(0, archs[2], reward=0.3)]
        replay = build_replay(events, None)
        assert [e.reward for e in replay[0]] == [0.1, 0.3]

    def test_empty_stream(self):
        assert build_replay([], None) == {}


class TestResumeDurableValidation:
    def test_requires_journal_dir(self):
        space = combo_small()
        with pytest.raises(ValueError, match="journal_dir"):
            resume_durable(space, None, SearchConfig(method="a3c"))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SearchConfig(method="a3c", journal_fsync_every=2)  # no dir
        with pytest.raises(ValueError):
            SearchConfig(method="a3c", checkpoint_every_records=0)
        cfg = SearchConfig(method="a3c", journal_dir=os.fspath(tmp_path),
                           journal_fsync_every=2,
                           checkpoint_every_records=6)
        assert cfg.journal_fsync_every == 2
