"""Unit tests for search-log persistence."""

import json

import pytest

from repro.analytics.io import load_records, save_records
from repro.nas.arch import Architecture
from repro.search.base import RewardRecord


def R(t, reward, arch_id=0, cached=False):
    return RewardRecord(time=t, agent_id=0,
                        arch=Architecture("s", (arch_id, 1)), reward=reward,
                        params=123, duration=4.5, cached=cached,
                        timed_out=False)


class TestRecordsRoundtrip:
    def test_roundtrip(self, tmp_path):
        records = [R(1.0, 0.5), R(2.0, -0.3, arch_id=2, cached=True)]
        path = tmp_path / "log.jsonl"
        save_records(records, path, metadata={"problem": "combo"})
        loaded, meta = load_records(path)
        assert loaded == records
        assert meta == {"problem": "combo"}

    def test_empty_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        save_records([], path)
        loaded, meta = load_records(path)
        assert loaded == [] and meta == {}

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(ValueError):
            load_records(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "log.jsonl"
        save_records([R(1.0, 0.5), R(2.0, 0.6, arch_id=1)], path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            load_records(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "log.jsonl"
        save_records([], path)
        header = json.loads(path.read_text().splitlines()[0])
        header["version"] = 99
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ValueError):
            load_records(path)

