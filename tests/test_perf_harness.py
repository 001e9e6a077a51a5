"""Tests for the bench regression gate (tools/check_bench.py), the
trend-file writer, and the perf-marked wall-clock assertions.

The gate tests exercise the pure ``check`` function on synthetic
histories; the perf-marked tests make real timing claims and are
excluded from ``make test-fast`` via the ``perf`` tier marker.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from check_bench import TRACKED, check, main as check_main  # noqa: E402


def entry(label, **best_ms):
    return {"label": label, "timestamp": "2026-01-01T00:00:00",
            "results": {k: {"best_ms": v} for k, v in best_ms.items()}}


class TestCheckBench:
    def test_single_entry_passes(self):
        assert check([entry("seed", conv1d_fwd_bwd=30.0)]) == []

    def test_within_tolerance_passes(self):
        runs = [entry("a", conv1d_fwd_bwd=10.0),
                entry("b", conv1d_fwd_bwd=11.4)]
        assert check(runs) == []

    def test_regression_detected(self):
        runs = [entry("a", conv1d_fwd_bwd=10.0),
                entry("b", conv1d_fwd_bwd=11.6)]
        problems = check(runs)
        assert len(problems) == 1 and "conv1d_fwd_bwd" in problems[0]

    def test_compares_against_best_prior_not_latest(self):
        # a slow middle entry must not raise the allowance
        runs = [entry("fast", ppo_update=5.0),
                entry("slow", ppo_update=9.0),
                entry("now", ppo_update=6.0)]
        problems = check(runs)
        assert len(problems) == 1 and "ppo_update" in problems[0]

    def test_new_kernel_passes_trivially(self):
        runs = [entry("old", conv1d_fwd_bwd=10.0),
                entry("new", conv1d_fwd_bwd=10.0, lstm_policy_step=1.0)]
        assert check(runs) == []

    def test_untracked_results_ignored(self):
        runs = [entry("a", dense_step_speedup=2.5),
                entry("b", dense_step_speedup=0.1)]
        runs[0]["results"]["dense_step_speedup"] = 2.5   # plain float
        runs[1]["results"]["dense_step_speedup"] = 0.1
        assert check(runs) == []

    def test_tolerance_configurable(self):
        runs = [entry("a", conv1d_fwd_bwd=10.0),
                entry("b", conv1d_fwd_bwd=11.4)]
        assert check(runs, tolerance=0.10) != []

    def test_uniform_machine_drift_tolerated_with_calibration(self):
        # the whole machine got 30% slower: calibration scales with the
        # kernels, normalized cost is unchanged, gate passes
        runs = [entry("a", machine_calibration=1.0, conv1d_fwd_bwd=10.0,
                      ppo_update=5.0),
                entry("b", machine_calibration=1.3, conv1d_fwd_bwd=13.0,
                      ppo_update=6.5)]
        assert check(runs) == []

    def test_selective_regression_caught_despite_calibration(self):
        # machine speed flat, one kernel slowed down: that's code
        runs = [entry("a", machine_calibration=1.0, conv1d_fwd_bwd=10.0,
                      ppo_update=5.0),
                entry("b", machine_calibration=1.0, conv1d_fwd_bwd=13.0,
                      ppo_update=5.0)]
        problems = check(runs)
        assert len(problems) == 1 and "conv1d_fwd_bwd" in problems[0]

    def test_faster_machine_does_not_mask_regression(self):
        # machine got 2x faster but the kernel only kept pace in raw ms:
        # normalized it doubled — still a regression
        runs = [entry("a", machine_calibration=2.0, conv1d_fwd_bwd=10.0),
                entry("b", machine_calibration=1.0, conv1d_fwd_bwd=10.0)]
        assert check(runs) != []

    def test_calibrated_entry_skips_uncalibrated_priors(self):
        # priors without calibration are not comparable; the first
        # calibrated entry seeds the normalized baseline
        runs = [entry("old", conv1d_fwd_bwd=10.0),
                entry("new", machine_calibration=1.0, conv1d_fwd_bwd=50.0)]
        assert check(runs) == []

    def test_tracked_covers_new_kernels(self):
        for kernel in ("lstm_policy_step", "plan_cache_hit_x20",
                       "search_iteration"):
            assert kernel in TRACKED

    def test_cli_exit_codes(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps([entry("a", conv1d_fwd_bwd=10.0),
                                    entry("b", conv1d_fwd_bwd=50.0)]))
        assert check_main(["--file", str(path)]) == 1
        path.write_text(json.dumps([entry("a", conv1d_fwd_bwd=10.0),
                                    entry("b", conv1d_fwd_bwd=10.5)]))
        assert check_main(["--file", str(path)]) == 0
        assert check_main(["--file", str(tmp_path / "missing.json")]) == 0


def test_trend_files_gain_one_record_and_refuse_a_corrupt_history(tmp_path):
    """``BENCH_substrate.json`` and ``VERIFY_report.json`` writers: a
    valid history gains exactly one record in the same format, and a
    torn one raises and keeps its bytes instead of being replaced."""
    from repro.perf import write_results
    from repro.verify.diff import write_verify_report

    writers = {
        "results": lambda path: write_results(
            path, {"conv1d_fwd_bwd": {"best_ms": 1.0}}, label="x"),
        "report": lambda path: write_verify_report(path, {"ok": True}),
    }
    for key, write in writers.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps([{"label": "old"}], indent=2) + "\n")
        write(path)
        runs = json.loads(path.read_text())
        assert len(runs) == 2 and runs[0] == {"label": "old"}
        assert key in runs[1] and "timestamp" in runs[1]
        assert path.read_text() == json.dumps(runs, indent=2) + "\n"

        torn = path.read_bytes()[:-40]
        path.write_bytes(torn)
        with pytest.raises(ValueError):
            write(path)
        assert path.read_bytes() == torn


@pytest.mark.perf
class TestKernelPerf:
    """Coarse wall-clock claims with wide margins; tier ``perf`` keeps
    them out of the fast inner loop on noisy machines."""

    @staticmethod
    def _best_ms(fn, repeats=20):
        fn()
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best * 1e3

    def test_plan_cache_hit_much_faster_than_compile(self):
        from repro.nas.builder import compile_architecture
        from repro.nas.plancache import PlanCache
        from repro.nas.spaces import combo_small
        from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head

        space = combo_small()
        head = combo_head()
        cache = PlanCache()
        rng = np.random.default_rng(0)
        archs = [space.random_architecture(rng) for _ in range(20)]
        for a in archs:
            cache.get_or_compile(space, a.choices, COMBO_PAPER_SHAPES, head)

        cold = self._best_ms(lambda: [
            compile_architecture(space, a.choices, COMBO_PAPER_SHAPES, head)
            for a in archs])
        warm = self._best_ms(lambda: [
            cache.get_or_compile(space, a.choices, COMBO_PAPER_SHAPES, head)
            for a in archs])
        assert warm * 5 < cold     # measured ~40x; 5x is the safety floor
