"""Crash-consistency of the space sweeper: SIGKILL and resume.

The scenario the table format is designed for: a sweep subprocess is
SIGKILLed mid-flight (after at least one shard boundary has been
published), then the sweep is rerun over the same directory.  The
resumed table must be bit-identical to an uninterrupted sweep's —
same fingerprint, same rows — and nothing already recorded may be
evaluated a second time.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench import ArchTable, SpaceSweeper, SweepConfig
from repro.rewards.base import EvalResult

from _bench_common import CLI_METADATA, combo_surrogate, sweep_combo_table

pytestmark = pytest.mark.bench

_CAP = 120
_SHARD = 16

_CHILD = """
import sys
import time
sys.path.insert(0, {tests_dir!r})
from _bench_common import sweep_combo_table
from repro.rewards import SurrogateReward

# slowed so the parent can catch the sweep between shard seals
_evaluate = SurrogateReward.evaluate

def slow_evaluate(self, *args, **kwargs):
    time.sleep(0.00625)
    return _evaluate(self, *args, **kwargs)

SurrogateReward.evaluate = slow_evaluate
sweep_combo_table({out!r}, cap={cap}, shard_size={shard}, batch_size=8)
"""


def _metadata():
    return dict(CLI_METADATA, cap=_CAP)


def _sealed_rows(table_dir: Path) -> int:
    manifest = table_dir / "manifest.json"
    if not manifest.exists():
        return 0
    try:
        return json.loads(manifest.read_text())["total_rows"]
    except (json.JSONDecodeError, KeyError):
        return 0


class _CountingSurrogate:
    """Wraps the surrogate, counting real evaluations — the proof that
    a resume re-evaluates nothing already in the table."""

    def __init__(self, space):
        self._inner = combo_surrogate(space)
        self.input_shapes = self._inner.input_shapes
        self.head_ops = self._inner.head_ops
        self.calls = 0

    @property
    def plan_cache(self):
        return self._inner.plan_cache

    def set_plan_cache(self, cache):
        self._inner.set_plan_cache(cache)

    def prefetch_plan(self, arch):
        self._inner.prefetch_plan(arch)

    def evaluate(self, arch, agent_seed=0) -> EvalResult:
        self.calls += 1
        return self._inner.evaluate(arch, agent_seed=agent_seed)


def test_sigkill_mid_sweep_resumes_bit_identically(tmp_path):
    killed_dir = tmp_path / "killed"
    clean_dir = tmp_path / "clean"

    # reference: the uninterrupted sweep
    space, clean_report = sweep_combo_table(clean_dir, cap=_CAP,
                                            shard_size=_SHARD)
    assert clean_report.total_rows > 2 * _SHARD

    # run the same sweep in a subprocess and SIGKILL it once the first
    # shard boundary has been published (but before it finishes)
    child = subprocess.Popen(
        [sys.executable, "-c",
         _CHILD.format(tests_dir=str(Path(__file__).parent),
                       out=str(killed_dir), cap=_CAP, shard=_SHARD)],
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=Path(__file__).parent.parent)
    try:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if _sealed_rows(killed_dir) >= _SHARD:
                break
            if child.poll() is not None:
                pytest.fail("sweep subprocess finished before the kill "
                            "point — slow its reward model or raise cap")
            time.sleep(0.01)
        else:
            pytest.fail("no shard boundary published within 120s")
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.wait(timeout=30)

    rows_at_kill = _sealed_rows(killed_dir)
    assert _SHARD <= rows_at_kill < clean_report.total_rows

    # resume over the killed directory with an evaluation counter
    counting = _CountingSurrogate(space)
    resume_report = SpaceSweeper(
        space, counting, killed_dir,
        SweepConfig(cap=_CAP, shard_size=_SHARD),
        metadata=_metadata()).run()

    # everything already in the table (sealed shards + the recovered
    # unsealed tail) was skipped, never re-evaluated
    assert resume_report.resumed >= rows_at_kill
    assert counting.calls == resume_report.evaluated \
        == clean_report.total_rows - resume_report.resumed

    # the resumed table is bit-identical to the uninterrupted one
    assert resume_report.fingerprint == clean_report.fingerprint
    resumed, clean = ArchTable.load(killed_dir), ArchTable.load(clean_dir)
    assert resumed.rows == clean.rows
    assert resumed.optimum() == clean.optimum()


def test_rerun_of_finished_sweep_evaluates_nothing(tmp_path):
    space, first = sweep_combo_table(tmp_path, cap=40, shard_size=16)
    counting = _CountingSurrogate(space)
    again = SpaceSweeper(space, counting, tmp_path,
                         SweepConfig(cap=40, shard_size=16),
                         metadata=dict(CLI_METADATA, cap=40)).run()
    assert counting.calls == 0
    assert again.evaluated == 0
    assert again.resumed == first.total_rows
    assert again.fingerprint == first.fingerprint


@pytest.mark.proc
def test_process_backend_sweep_matches_serial(tmp_path):
    serial_dir, proc_dir = tmp_path / "serial", tmp_path / "proc"
    _, serial_report = sweep_combo_table(serial_dir, cap=60,
                                         shard_size=32)
    _, proc_report = sweep_combo_table(proc_dir, cap=60, shard_size=32,
                                       backend="process", workers=2)
    assert proc_report.evaluated == serial_report.evaluated
    assert proc_report.failed == serial_report.failed == 0
    # completion order differs; the table must not
    assert proc_report.fingerprint == serial_report.fingerprint
