"""Unit tests for the durability layer (repro.search.journal).

The write-ahead journal, the checkpoint generations (saved from one
journaled run's capture and loaded with its journal, which rebuilds
their records and caches), and the shared atomic-write primitives are
each tested here; the end-to-end crash/resume promises (bit-identical
fingerprints, zero re-evaluation, exact rebuilds on every backend) live
in ``test_search_journal_resume.py`` and the crash-point fuzzer
(``repro.search.chaos --profile crashpoint``).  The record rebuild
(``read_records``) is tested here on synthetic streams and on the
journals of real runs: cut by their wall time, preempted and resumed,
and SIGKILLed.
"""

import dataclasses
import json
import math
import os
import zlib

import numpy as np
import pytest

from _checkpoint_common import (CaptureLog, checkpoint_fingerprint,
                                checkpoint_v1_json, records_json, watermarks)
from repro.cli import main as cli_main
from repro.events import (BATCH_RECORDED, CACHE_HIT, CHECKPOINT, EVAL_DONE,
                          PUSH, RESTART, RUN, RUN_END, SUBMIT, CallbackSink,
                          EventLog, SearchEvent, emit)
from repro.hpc import NodeAllocation, TrainingCostModel
from repro.nas.arch import Architecture
from repro.nas.spaces import combo_small
from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
from repro.rewards import SurrogateReward
from repro.search import NasSearch, SearchConfig, chaos
from repro.search import journal
from repro.search.checkpoint import AgentCheckpoint, SearchCheckpoint
from repro.search.journal import (GENERATIONS_DIR, JOURNAL_NAME,
                                  CheckpointGenerations, JournalWriter,
                                  build_replay, read_journal, read_records,
                                  resume_durable)
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
        # a complete last record that fails its CRC is not the last
        # valid one: the writer continues after seq 4, as a scan of the
        # whole journal would
        with open(path, "a") as fh:
            fh.write('{"crc":1,"ev":{"kind":"submit"},"seq":5}\n')
        writer = JournalWriter(path)
        assert writer.seq == 4
        writer.append(some_events(1)[0])
        writer.close()
        back = read_journal(path)
        assert back.seqs == [1, 2, 3, 4, 5]
        assert back.num_skipped == 1          # the corrupt record

    @pytest.mark.parametrize("torn", [30, journal._TAIL_BLOCK + 100])
    def test_torn_tail_repair_reads_at_most_two_blocks(self, tmp_path,
                                                      monkeypatch, torn):
        """On a journal several blocks long, the tail repair cuts a torn
        last line (shorter or longer than a block) at the byte after the
        last newline, reading at most two blocks from the end."""
        block = journal._TAIL_BLOCK
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter(path)
        while path.stat().st_size < 4 * block:
            writer.append(SearchEvent(SUBMIT, 0.0, agent_id=0,
                                      payload={"pad": "x" * 500}))
        writer.close()
        intact, records = path.stat().st_size, writer.seq
        with open(path, "ab") as fh:
            fh.write(b'{"crc":1,"ev":{"kind":"submit","pad":"'
                     + b"y" * torn)
        read = []

        class CountingFile:
            def __init__(self, fh):
                self._fh = fh

            def read(self, n=-1):
                data = self._fh.read(n)
                read.append(len(data))
                return data

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

        def counting_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return CountingFile(fh) if mode == "r+b" else fh

        monkeypatch.setattr(journal, "open", counting_open, raising=False)
        writer = JournalWriter(path)
        writer.close()
        assert path.stat().st_size == intact
        assert 0 < sum(read) <= 2 * block
        assert writer.seq == records
        assert len(read_journal(path)) == records

    def test_line_format_is_pinned(self, tmp_path):
        """Every line is the canonical dump of the whole record, the
        formula the writer used before it built lines around one dump of
        the event: 17-digit and non-finite floats, nested dicts, an
        ``arch`` payload and ``None`` agent/iteration fields included."""
        def canonical(data):
            return json.dumps(data, sort_keys=True, separators=(",", ":"))

        events = [
            SearchEvent(SUBMIT, 0.1 + 0.2, agent_id=0, iteration=3,
                        payload={"x": 1 / 3, "pi": math.pi, "tiny": 5e-324,
                                 "neg_zero": -0.0, "big": 10 ** 20}),
            SearchEvent(EVAL_DONE, 12.5, agent_id=1, iteration=0, payload={
                "arch": Architecture("combo-small", (0, 3, 1)).to_dict(),
                "reward": 0.30000000000000004, "duration": 1e-07,
                "params": 100, "failed": False}),
            SearchEvent(PUSH, 2.0 / 3.0, agent_id=None, iteration=None,
                        payload={"nested": {"b": {"d": [1.1, None, True],
                                                  "c": "\u00e9"},
                                            "a": 1.7976931348623157e308},
                                 "nan": math.nan, "inf": -math.inf}),
            SearchEvent(RESTART, 3.0),
        ]
        path = tmp_path / "journal.jsonl"
        writer = JournalWriter(path)
        for event in events:
            writer.append(event)
        writer.close()
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        assert len(lines) == len(events)
        for n, (line, event) in enumerate(zip(lines, events), start=1):
            ev = event.to_dict()
            crc = zlib.crc32(canonical(ev).encode("utf-8"))
            assert line == canonical({"seq": n, "crc": crc, "ev": ev})
        back = read_journal(path)
        assert back.num_skipped == 0
        assert [canonical(e.to_dict()) for e in back] \
            == [canonical(e.to_dict()) for e in events]

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


@dataclasses.dataclass
class Captured:
    """A deterministic mid-run checkpoint of a journaled search (same
    idiom as the golden wire-format test: agents in flight, boundaries
    and caches live), loaded from its generation with the journal it was
    captured from, and its watermark there."""

    ckpt: object
    events: object
    mark: int


@pytest.fixture(scope="module")
def captured(tmp_path_factory):
    space = combo_small()
    directory = tmp_path_factory.mktemp("captured")
    cfg = SearchConfig(method="a3c", allocation=NodeAllocation(32, 4, 3),
                       wall_time=30 * 60.0, seed=1,
                       checkpoint_every_records=15,
                       journal_dir=os.fspath(directory))
    log = CaptureLog()
    log.attach(NasSearch(space, surrogate(space), cfg, event_sink=log)).run()
    events = read_journal(directory / JOURNAL_NAME)
    mid = len(log.captures) // 2
    return Captured(log.checkpoint(mid), events, watermarks(events)[mid])


@pytest.fixture(scope="module")
def ckpt(captured):
    return captured.ckpt


def assert_loads_as_captured(loaded, ckpt):
    assert checkpoint_fingerprint(loaded) == checkpoint_fingerprint(ckpt)
    assert records_json(loaded.records) == records_json(ckpt.records)
    assert [a.cache_entries for a in loaded.agents] == \
        [a.cache_entries for a in ckpt.agents]


class TestCheckpointGenerations:
    def test_save_load_round_trip(self, tmp_path, captured):
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(captured.ckpt, journal_seq=captured.mark)
        assert path.name == "ckpt-00000001.json"
        loaded, integrity = gens.load_latest(captured.events)
        assert_loads_as_captured(loaded, captured.ckpt)
        assert integrity["journal_seq"] == captured.mark

    def test_generation_is_pinned_v2_plus_integrity(self, tmp_path, ckpt):
        """The on-disk generation is exactly the pinned checkpoint v2
        payload plus one additive ``integrity`` key: no records and no
        cache entries, which the journal holds."""
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(ckpt, journal_seq=3)
        data = json.loads(path.read_text())
        integrity = data.pop("integrity")
        assert set(integrity) == {"sha256", "journal_seq"}
        assert data == json.loads(json.dumps(ckpt.to_json()))
        assert data["version"] == 2 and "records" not in data
        assert not any("cache" in agent for agent in data["agents"])

    def test_integrity_digests_the_parsed_payload(self, tmp_path, ckpt):
        """A generation is the canonical payload plus ``integrity``, and
        its sha256 is the digest ``load_latest`` recomputes."""
        path = CheckpointGenerations(tmp_path).save(ckpt, journal_seq=5)
        text = path.read_text()
        data = json.loads(text)
        integrity = data.pop("integrity")
        assert integrity == {"sha256": CheckpointGenerations._digest(data),
                             "journal_seq": 5}
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        assert text.startswith(canonical[:-1] + ',"integrity":')

    def test_default_layout_generation_still_loads(self, tmp_path,
                                                   captured):
        """A generation written the earlier way — ``json.dumps`` default
        layout, ``integrity`` last — still verifies and loads."""
        data = captured.ckpt.to_json()
        data["integrity"] = {"sha256": CheckpointGenerations._digest(data),
                             "journal_seq": captured.mark}
        (tmp_path / "ckpt-00000001.json").write_text(json.dumps(data))
        loaded, integrity = CheckpointGenerations(tmp_path).load_latest(
            captured.events)
        assert_loads_as_captured(loaded, captured.ckpt)
        assert integrity["journal_seq"] == captured.mark

    def test_v1_generation_loads_without_the_journal(self, tmp_path,
                                                     captured):
        """A version-1 generation embeds its records and caches, so it
        loads as it is, whatever the journal holds."""
        data = checkpoint_v1_json(captured.ckpt)
        data["integrity"] = {"sha256": CheckpointGenerations._digest(data),
                             "journal_seq": captured.mark}
        (tmp_path / "ckpt-00000001.json").write_text(json.dumps(data))
        loaded, _ = CheckpointGenerations(tmp_path).load_latest(EventLog())
        assert_loads_as_captured(loaded, captured.ckpt)

    def test_v2_generation_needs_its_journal_prefix(self, tmp_path,
                                                    captured, caplog):
        """A version-2 generation whose journal prefix has a gap (a
        corrupt record skipped, or a journal that ends early) cannot be
        rebuilt exactly, so it is discarded like a corrupt file."""
        events = captured.events
        gapped = EventLog(events, seqs=[seq + (seq >= 7)
                                        for seq in events.seqs])
        short = EventLog(events[:captured.mark - 1])
        gens = CheckpointGenerations(tmp_path)
        gens.save(captured.ckpt, journal_seq=captured.mark)
        with caplog.at_level("WARNING", logger="repro.search.journal"):
            assert gens.load_latest(gapped) is None
            assert gens.load_latest(short) is None
        assert sum("not all readable" in rec.message
                   for rec in caplog.records) == 2

    def test_generation_size_is_flat_in_the_record_count(self, tmp_path):
        """Each save costs O(agents): the generation's bytes do not
        grow with the records, which the journal holds."""
        space = combo_small()
        cfg = SearchConfig(method="rdm", allocation=NodeAllocation(10, 2, 3),
                           wall_time=3600.0, seed=3, backend="serial",
                           max_iterations=40, checkpoint_every_records=24,
                           journal_dir=os.fspath(tmp_path))
        search = NasSearch(space, surrogate(space), cfg)
        sizes = []
        save = search.journal.generations.save

        def sized_save(ckpt, journal_seq):
            path = save(ckpt, journal_seq)
            sizes.append(path.stat().st_size)
            return path

        search.journal.generations.save = sized_save
        search.run()
        records = [e.payload["num_records"]
                   for e in read_journal(tmp_path / JOURNAL_NAME)
                   if e.kind == CHECKPOINT]
        assert len(sizes) == len(records) >= 8
        assert records[-1] >= 8 * records[0]
        assert max(sizes) <= 1.1 * min(sizes)

    def test_prune_keeps_newest(self, tmp_path, captured):
        gens = CheckpointGenerations(tmp_path)
        for seq in range(7):
            gens.save(captured.ckpt, journal_seq=seq)
        names = [p.name for p in gens.paths()]
        assert names == [f"ckpt-{n:08d}.json" for n in range(3, 8)]
        assert gens.load_latest(captured.events)[1]["journal_seq"] == 6

    def test_corrupt_newest_falls_back_with_warning(self, tmp_path,
                                                    captured, caplog):
        gens = CheckpointGenerations(tmp_path)
        gens.save(captured.ckpt, journal_seq=captured.mark)
        newest = gens.save(captured.ckpt, journal_seq=captured.mark + 1)
        data = json.loads(newest.read_text())
        data["time"] = -12345.0               # bit rot after the sha stamp
        newest.write_text(json.dumps(data))
        with caplog.at_level("WARNING", logger="repro.search.journal"):
            loaded, integrity = gens.load_latest(captured.events)
        assert_loads_as_captured(loaded, captured.ckpt)
        assert integrity["journal_seq"] == captured.mark
        assert any("falling back" in rec.message for rec in caplog.records)

    def test_torn_newest_falls_back(self, tmp_path, captured):
        """Crash residue: a torn newest generation is discarded, and the
        stale ``.tmp`` of a save that died before its rename is never
        read and does not block the next save."""
        ckpt, events = captured.ckpt, captured.events
        gens = CheckpointGenerations(tmp_path)
        gens.save(ckpt, journal_seq=1)
        newest = gens.save(ckpt, journal_seq=2)
        newest.write_bytes(newest.read_bytes()[:100])   # torn mid-write
        (tmp_path / "ckpt-00000003.json.tmp").write_text('{"torn": ')
        assert gens.load_latest(events)[1]["journal_seq"] == 1
        assert gens.save(ckpt, journal_seq=3).name == "ckpt-00000003.json"
        assert list(tmp_path.glob("*.tmp")) == []
        assert gens.load_latest(events)[1]["journal_seq"] == 3

    def test_no_surviving_generation_returns_none(self, tmp_path, captured,
                                                  caplog):
        gens = CheckpointGenerations(tmp_path)
        path = gens.save(captured.ckpt, journal_seq=1)
        path.write_text("garbage")
        with caplog.at_level("WARNING", logger="repro.search.journal"):
            assert gens.load_latest(captured.events) is None

    def test_empty_directory(self, tmp_path):
        gens = CheckpointGenerations(tmp_path / "missing")
        assert gens.paths() == []
        assert gens.load_latest(EventLog()) is None


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


def record_event(kind, agent_id, arch_dict, reward):
    return SearchEvent(kind, 1.0, agent_id=agent_id, payload={
        "arch": arch_dict, "reward": reward, "duration": 2.0,
        "params": 100, "timed_out": False})


def counts_event(kind, counts):
    return SearchEvent(kind, 0.0, payload={"space": "combo-small",
                                           "records": counts,
                                           "caches": [0] * len(counts)})


def recorded(agent_id, order=None):
    return SearchEvent(BATCH_RECORDED, 1.0, agent_id=agent_id, payload=(
        {} if order is None else {"order": order}))


def surrogate(space):
    return SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                           TrainingCostModel.combo_paper(), epochs=1,
                           train_fraction=0.1, timeout=600.0, seed=7)


def journal_records(journal_dir):
    return read_records(read_journal(journal_dir / JOURNAL_NAME))[0]


class TestReadRecords:
    """``read_records`` rebuilds a run's records from its journal, in
    the order the search appended them: an agent's ``eval-done`` and
    ``cache-hit`` events become records at its ``batch-recorded``
    event, and each ``run`` and ``restart`` cuts the agents it names
    back to the count it carries."""

    @pytest.fixture(scope="class")
    def arch(self):
        return combo_small().random_architecture(
            np.random.default_rng(0)).to_dict()

    def test_counts_cut_each_agent(self, arch):
        events = [
            counts_event(RUN, [0, 0]),
            record_event(EVAL_DONE, 0, arch, 0.1),
            record_event(CACHE_HIT, 1, arch, 0.2),
            record_event(EVAL_DONE, 0, arch, 0.3),
            recorded(1),
            recorded(0),
            SearchEvent(RESTART, 2.0, agent_id=0,
                        payload={"real_evals": 1, "num_records": 1}),
            record_event(EVAL_DONE, 0, arch, 0.4),
            recorded(0),
            record_event(EVAL_DONE, 1, arch, 0.5),   # never consumed
            counts_event(RUN_END, [2, 1]),
        ]
        records, metadata = read_records(events)
        assert [(r.agent_id, r.reward, r.cached) for r in records] == [
            (1, 0.2, True), (0, 0.1, False), (0, 0.4, False)]
        assert metadata == {"space": "combo-small"}

    def test_rows_follow_the_order_map(self, arch):
        """Row i of a batch is the agent's ``order[i]``-th completion
        since its previous ``batch-recorded``; other agents'
        completions in between do not count."""
        events = [
            counts_event(RUN, [0, 0]),
            record_event(EVAL_DONE, 0, arch, 0.1),
            record_event(EVAL_DONE, 1, arch, 0.9),
            record_event(EVAL_DONE, 0, arch, 0.2),
            record_event(CACHE_HIT, 0, arch, 0.3),
            recorded(0, order=[2, 0, 1]),
            recorded(1),
        ]
        records, _metadata = read_records(events)
        assert [(r.agent_id, r.reward) for r in records] == [
            (0, 0.3), (0, 0.1), (0, 0.2), (1, 0.9)]

    def test_a_run_drops_unrecorded_completions(self, arch):
        """A resumed run starts with fresh evaluators: completions the
        killed run never recorded do not join its next batch."""
        events = [
            counts_event(RUN, [0]),
            record_event(EVAL_DONE, 0, arch, 0.1),     # killed here
            counts_event(RUN, [0]),
            record_event(EVAL_DONE, 0, arch, 0.2),
            recorded(0),
        ]
        assert [r.reward for r in read_records(events)[0]] == [0.2]

    def test_journal_without_recorded_events_is_refused(self, arch):
        events = [SearchEvent(RUN, 0.0, payload={"records": [0]}),
                  record_event(EVAL_DONE, 0, arch, 0.1)]
        with pytest.raises(ValueError, match="batch-recorded"):
            read_records(events)

    @pytest.mark.parametrize("caches", [[1], None])
    def test_cache_rebuild_cuts_at_each_run(self, tmp_path, caches):
        """A generation's rebuilt cache holds the agent's successful
        ``eval-done`` results in journal order, each ``run`` cutting it
        to the length that run starts from: entries a killed run added
        past its checkpoint are gone even when the resumed run never
        evaluates them again.  A run without a cache rebuilds none."""
        space = combo_small()
        a, b, c, d = (space.random_architecture(np.random.default_rng(i))
                      for i in range(4))

        def done(arch, failed=False):
            return SearchEvent(EVAL_DONE, 1.0, agent_id=0, payload={
                "arch": arch.to_dict(), "reward": 0.5, "duration": 2.0,
                "params": 100, "timed_out": False, "nonfinite": False,
                "failed": failed})

        run = SearchEvent(RUN, 0.0, payload={"records": [0], "caches": [0]})
        resume = SearchEvent(RUN, 0.0, payload={"records": [0],
                                                "caches": caches})
        events = EventLog([run, done(a), done(b), resume, done(c),
                           done(d, failed=True)])
        ckpt = SearchCheckpoint(time=1.0, seed=0, method="rdm",
                                space_name=space.name, num_agents=1,
                                wall_time=60.0, agents=[AgentCheckpoint(
                                    0, done=True, converged=False,
                                    boundary=None)])
        gens = CheckpointGenerations(tmp_path)
        gens.save(ckpt, journal_seq=len(events))
        loaded, _integrity = gens.load_latest(events)
        keys = [key for key, _result in loaded.agents[0].cache_entries]
        assert keys == ([a.key, c.key] if caches else [])

    @pytest.mark.parametrize("events", [
        [], [SearchEvent(SUBMIT, 0.0, agent_id=0, payload={"count": 1})],
        [eval_done(0, {"space": "combo-small", "choices": [0]}),
         counts_event(RUN, [0])]])
    def test_stream_without_a_leading_run_is_refused(self, events):
        with pytest.raises(ValueError, match="no 'run' event"):
            read_records(events)

    def test_wall_time_cut_run_rebuilds_exactly(self, tmp_path):
        """A balsam run cut by its wall time leaves evaluations no agent
        consumed; they never become records.  Twelve agents, whose
        batches complete out of submission order, a3c and ambs: the
        rebuild equals the result's records as a list, and the
        per-agent counts survive the journal's CRC as a list."""
        space = combo_small()
        for method in ("a3c", "ambs"):
            directory = tmp_path / method
            cfg = SearchConfig(method=method,
                               allocation=NodeAllocation(49, 12, 3),
                               wall_time=120 * 60.0, seed=0,
                               journal_dir=os.fspath(directory))
            result = NasSearch(space, surrogate(space), cfg).run()
            events = read_journal(directory / JOURNAL_NAME)
            assert events.num_skipped == 0
            records, metadata = read_records(events)
            assert records_json(records) == records_json(result.records)
            assert any("order" in e.payload for e in events
                       if e.kind == BATCH_RECORDED)
            assert metadata == {"space": "combo-small", "method": method,
                                "seed": 0, "backend": "balsam",
                                "total_nodes": 49, "num_agents": 12,
                                "workers_per_agent": 3, "service_nodes": 1}
            unended = [e for e in events if e.kind != RUN_END]
            assert records_json(read_records(unended)[0]) == \
                records_json(records)

    @pytest.mark.parametrize("method,backend", [("a3c", "balsam"),
                                                ("a2c", "serial")])
    def test_preempted_then_resumed_journal_rebuilds_the_result(
            self, tmp_path, method, backend):
        space = combo_small()
        cfg = SearchConfig(method=method, allocation=NodeAllocation(16, 3, 3),
                           wall_time=1800.0, seed=3, backend=backend,
                           max_iterations=10 if backend == "serial" else None,
                           journal_dir=os.fspath(tmp_path))
        count = [0]

        def preempt_at_12th(event):
            if event.kind == EVAL_DONE:
                count[0] += 1
                if count[0] == 12:
                    search.request_preemption("test")

        search = NasSearch(space, surrogate(space),
                           dataclasses.replace(cfg, preemptible=True),
                           event_sink=CallbackSink(preempt_at_12th))
        assert search.run().preempted
        final = resume_durable(space, surrogate(space), cfg).run()
        assert not final.preempted
        assert records_json(journal_records(tmp_path)) == \
            records_json(final.records)


@pytest.mark.crashfuzz
def test_sigkilled_journal_rebuilds_and_analyzes(tmp_path, capsys):
    """A journal SIGKILLed mid-run (through the crash-point fuzzer's
    child) has no ``run-end``: its rebuild holds every record of the
    newest verified checkpoint generation, and ``repro analyze`` reads
    it, torn tail included."""
    base = tmp_path / "base"
    chaos.crashpoint_child(base)
    total = (base / JOURNAL_NAME).read_bytes().count(b"\n")
    crash = tmp_path / "crash"
    assert chaos._spawn_and_kill_at(crash, total // 2, "a3c", "serial",
                                    seed=3, iterations=4, throttle=0.05)
    with open(crash / JOURNAL_NAME, "a") as fh:
        fh.write('{"crc": 1, "ev": {"kind": "eval-')
    events = read_journal(crash / JOURNAL_NAME)
    ckpt, _integrity = CheckpointGenerations(
        crash / GENERATIONS_DIR).load_latest(events)
    assert ckpt.records
    rebuilt = records_json(journal_records(crash))
    assert rebuilt[:len(ckpt.records)] == records_json(ckpt.records)
    assert cli_main(["analyze", str(crash)]) == 0
    assert "did not end" in capsys.readouterr().out


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
        # a capture is only ever a saved generation
        with pytest.raises(ValueError, match="requires journal_dir"):
            SearchConfig(method="a3c", checkpoint_every_records=6)
        cfg = SearchConfig(method="a3c", journal_dir=os.fspath(tmp_path),
                           journal_fsync_every=2,
                           checkpoint_every_records=6)
        assert cfg.journal_fsync_every == 2
