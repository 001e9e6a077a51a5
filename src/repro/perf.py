"""Substrate performance harness: baseline timings and regression smoke.

The NAS loop's throughput is bounded by how fast candidate networks train
(the paper's premise is that thousands of reward estimations per hour are
needed), so the substrate's hot paths are guarded by explicit wall-clock
baselines.  This module provides:

* :data:`BENCHMARKS` — the workload builders: the dense training step
  (the reward-estimation inner loop) in both the compiled float32
  default configuration and the seed-equivalent float64 per-parameter
  configuration, plus Conv1D forward+backward, a PPO update, an LSTM
  policy rollout, architecture compilation (cold and through a warm
  :class:`~repro.nas.plancache.PlanCache`), and one short end-to-end
  surrogate search through the full runner stack.
  ``benchmarks/bench_substrate_perf.py`` times the same builders under
  pytest-benchmark.
* :func:`run_suite` — times every builder's workload.
* :func:`write_results` / :func:`main` — the ``repro-bench`` console
  entry point; appends one timestamped record per run to
  ``BENCH_substrate.json`` so before/after numbers live in the repo.
* :func:`smoke` — the ``repro-smoke`` console entry point: the tier-1
  substrate test files plus one quick benchmark iteration; the cheap
  pre-merge check wired into ``make smoke``.  It writes no file:
  ``make verify`` is the only writer of ``VERIFY_report.json``.

Run via ``make bench`` / ``make smoke`` or::

    PYTHONPATH=src python -m repro.perf --quick
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

__all__ = ["BENCHMARKS", "time_callable", "run_suite", "write_results",
           "main", "smoke"]

#: test files exercised by the smoke entry point (tier-1 substrate core)
SMOKE_TESTS = ["tests/test_nn_graph.py", "tests/test_nn_training.py",
               "tests/test_rl_ppo.py"]


def time_callable(fn, repeats: int = 30, warmup: int = 5) -> dict:
    """Time ``fn()`` and report best/mean/p50 milliseconds.

    ``best`` is the headline number: on shared machines it is the least
    noise-contaminated estimate of the achievable per-call cost.
    """
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    arr = np.asarray(samples) * 1e3
    return {"best_ms": float(arr.min()), "mean_ms": float(arr.mean()),
            "p50_ms": float(np.percentile(arr, 50)), "repeats": repeats}


# ----------------------------------------------------------------------
# benchmark workloads
# ----------------------------------------------------------------------
def _dense_model(dtype):
    from repro.nn import Dense, GraphModel

    m = GraphModel()
    m.add_input("x", (128,))
    m.add("h1", Dense(256, "relu"), ["x"])
    m.add("h2", Dense(256, "relu"), ["h1"])
    m.add("y", Dense(1), ["h2"])
    m.set_output("y")
    return m.build(np.random.default_rng(0), dtype=dtype)


def _dense_step(dtype, fused: bool):
    from repro.nn import Adam, FlatAdam

    m = _dense_model(dtype)
    opt = (FlatAdam(m.flatten_parameters()) if fused
           else Adam(m.parameters()))
    rng = np.random.default_rng(1)
    x = {"x": rng.standard_normal((256, 128)).astype(m.dtype)}
    g = (np.ones((256, 1)) / 256).astype(m.dtype)

    def step():
        m.forward(x, training=True)
        m.zero_grad()
        m.backward(g)
        opt.step()

    return step


def _conv_fwd_bwd(dtype):
    from repro.nn import Conv1D, Dense, Flatten, GraphModel, MaxPooling1D

    m = GraphModel()
    m.add_input("x", (1024, 1))
    m.add("c1", Conv1D(8, 7, activation="relu"), ["x"])
    m.add("p1", MaxPooling1D(2), ["c1"])
    m.add("c2", Conv1D(8, 5, activation="relu"), ["p1"])
    m.add("p2", MaxPooling1D(2), ["c2"])
    m.add("f", Flatten(), ["p2"])
    m.add("y", Dense(1), ["f"])
    m.set_output("y")
    m.build(np.random.default_rng(0), dtype=dtype)
    rng = np.random.default_rng(1)
    x = {"x": rng.standard_normal((32, 1024, 1)).astype(m.dtype)}
    g = (np.ones((32, 1)) / 32).astype(m.dtype)

    def step():
        m.forward(x, training=True)
        m.zero_grad()
        m.backward(g)

    return step


def _ppo_update():
    from repro.nas.spaces import combo_small
    from repro.rl import LSTMPolicy, PPOUpdater

    space = combo_small()
    policy = LSTMPolicy(space.action_dims, seed=0)
    updater = PPOUpdater(policy)
    rng = np.random.default_rng(0)
    rollout = policy.sample(11, rng)
    rewards = rng.random(11)
    return lambda: updater.update(rollout, rewards)


def _compile_batch():
    from repro.nas.builder import compile_architecture
    from repro.nas.spaces import combo_small
    from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head

    space = combo_small()
    rng = np.random.default_rng(0)
    archs = [space.random_architecture(rng) for _ in range(20)]
    return lambda: [compile_architecture(space, a.choices,
                                         COMBO_PAPER_SHAPES, combo_head())
                    for a in archs]


def _machine_calibration():
    # fixed, repo-independent GEMM + elementwise mix: measures how fast
    # *this machine, right now* runs the kind of work the suite times.
    # Recorded with every entry so the regression gate can compare
    # normalized (best_ms / calibration) across entries — on shared
    # containers the absolute numbers drift 20-30% day to day
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)).astype(np.float32)
    b = rng.standard_normal((256, 256)).astype(np.float32)

    def fn():
        c = a @ b
        np.tanh(c, out=c)
        c += a
        return c @ b

    return fn


def _lstm_policy_step():
    # one full autoregressive rollout: horizon fused LSTM steps + head
    # GEMM + masked softmax sampling, at the paper's per-agent batch of 11
    from repro.nas.spaces import combo_small
    from repro.rl import LSTMPolicy

    space = combo_small()
    policy = LSTMPolicy(space.action_dims, seed=0)
    rng = np.random.default_rng(0)
    return lambda: policy.sample(11, rng)


def _plan_cache_hit():
    # warm-cache lookups for the same 20 architectures compiled by
    # compile_architecture_x20; the ratio of the two is the cache payoff
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

    def hit_batch():
        return [cache.get_or_compile(space, a.choices, COMBO_PAPER_SHAPES,
                                     head) for a in archs]

    hit_batch.cache = cache  # lets a caller check every timed lookup hit
    return hit_batch


def _search_iteration():
    # end to end: a short a3c surrogate search (4 agents x 3 workers, 20
    # virtual minutes) through the full runner/evaluator/exchange stack,
    # with a cold reward model (and plan cache) per call
    from repro.hpc import NodeAllocation, TrainingCostModel
    from repro.nas.spaces import combo_small
    from repro.problems.combo import COMBO_PAPER_SHAPES, combo_head
    from repro.rewards import SurrogateReward
    from repro.search import SearchConfig, run_search

    space = combo_small()
    cfg = SearchConfig(method="a3c", allocation=NodeAllocation(32, 4, 3),
                       wall_time=20 * 60.0, seed=1)

    def iteration():
        reward = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                                 TrainingCostModel.combo_paper(),
                                 epochs=1, train_fraction=0.1,
                                 timeout=600.0, log_params_opt=6.5, seed=7)
        return run_search(space, reward, cfg)

    return iteration


#: benchmark name -> builder of the zero-argument callable it times.
#: ``dense_train_step_float64_unfused`` reproduces the seed
#: configuration (float64 weights, per-parameter Adam) and
#: ``dense_train_step`` is the shipped default (float32, compiled plan,
#: fused flat Adam); their ratio is the substrate speedup
BENCHMARKS = {
    "machine_calibration": _machine_calibration,
    "dense_train_step": lambda: _dense_step(np.float32, fused=True),
    "dense_train_step_float64_unfused": lambda: _dense_step(np.float64,
                                                            fused=False),
    "conv1d_fwd_bwd": lambda: _conv_fwd_bwd(np.float32),
    "ppo_update": _ppo_update,
    "lstm_policy_step": _lstm_policy_step,
    "compile_architecture_x20": _compile_batch,
    "plan_cache_hit_x20": _plan_cache_hit,
    "search_iteration": _search_iteration,
}


def run_suite(repeats: int = 30) -> dict:
    """Run every benchmark; returns ``{name: timing dict}`` plus the
    ``dense_step_speedup`` ratio."""
    suite = {name: build() for name, build in BENCHMARKS.items()}
    # the end-to-end search is ~100x a micro-benchmark call; fewer
    # repeats keep 'make bench' under a minute without losing best_ms
    slow_repeats = {"search_iteration": max(3, repeats // 5)}
    results = {}
    for name, fn in suite.items():
        results[name] = time_callable(fn, repeats=slow_repeats.get(name,
                                                                   repeats))
        print(f"{name:36s} best {results[name]['best_ms']:8.3f} ms  "
              f"mean {results[name]['mean_ms']:8.3f} ms")
    fast = results["dense_train_step"]["best_ms"]
    slow = results["dense_train_step_float64_unfused"]["best_ms"]
    results["dense_step_speedup"] = round(slow / fast, 3)
    print(f"{'dense_step_speedup':36s} {results['dense_step_speedup']:.2f}x "
          f"(float64 unfused / float32 fused)")
    return results


def write_results(path: str | Path, results: dict,
                  label: str | None = None) -> None:
    """Append one benchmark record to a JSON file (list of runs).

    ``label`` names the entry ("seed", "PR 6: ...", ...) so the history
    in ``BENCH_substrate.json`` reads as a changelog; ``make bench``
    passes one via ``BENCH_LABEL``.
    """
    from repro.util.atomicio import append_trend_record
    n = append_trend_record(path, "results", results, label=label)
    print(f"wrote {path} ({n} run{'s' if n != 1 else ''})")


# ----------------------------------------------------------------------
# console entry points
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench", description="substrate performance baselines")
    parser.add_argument("--quick", action="store_true",
                        help="few repeats; for smoke checks, not baselines")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per benchmark (default 30)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="append results to this JSON file "
                             "(e.g. BENCH_substrate.json)")
    parser.add_argument("--label", default=None,
                        help="name this entry in the results file")
    args = parser.parse_args(argv)
    repeats = args.repeats or (5 if args.quick else 30)
    results = run_suite(repeats=repeats)
    if args.output:
        write_results(args.output, results, label=args.label)
    return 0


def smoke(argv: list[str] | None = None) -> int:
    """Tier-1 substrate tests + one quick benchmark pass."""
    parser = argparse.ArgumentParser(
        prog="repro-smoke",
        description="substrate smoke check: core tests + quick bench")
    parser.add_argument("--no-chaos", action="store_true",
                        help="skip the light fault-injection pass")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the eager-vs-compiled differential pass")
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parents[2]
    code = subprocess.call(
        [sys.executable, "-m", "pytest", "-q", *SMOKE_TESTS], cwd=root)
    if code != 0:
        print("smoke: tests FAILED")
        return code
    print("smoke: tests passed; timing one quick benchmark pass")
    run_suite(repeats=3)
    if not args.no_verify:
        # differential-test a handful of sampled architectures per space
        # (eager walk vs. compiled plan)
        print("smoke: differential pass (8 archs/space, eager vs. compiled)")
        from repro.verify.diff import verify_report
        report = verify_report(per_space=8)
        if not report["ok"]:
            for problem, per_dtype in report["spaces"].items():
                for dtype, row in per_dtype.items():
                    for failure in row["failures"]:
                        print(f"smoke: diff FAIL — {failure}")
            return 1
        print("smoke: eager and compiled paths agree")
    if args.no_chaos:
        return 0
    # one light-fault row against the fault-free baseline keeps smoke
    # quick; 'make chaos' runs the full none/light/moderate/heavy matrix
    print("smoke: light fault-injection pass (see 'make chaos' for the "
          "full matrix)")
    from repro.search import chaos
    rows = chaos.run("faults", minutes=10.0, levels=("none", "light"))
    problems = chaos.check("faults", rows, tolerance=0.10)
    for problem in problems:
        print(f"smoke: chaos FAIL — {problem}")
    if problems:
        return 1
    print("smoke: fault smoke within tolerance")
    # light NaN-injection pass: inject numeric faults into one a3c
    # search under guard-mode=recover and require the health layer to
    # heal it (rollback + resurrection, nothing permanently lost)
    print("smoke: light NaN-injection pass (health layer, a3c)")
    health_rows = chaos.run("numeric", ("a3c",), minutes=40.0)
    health_problems = chaos.check("numeric", health_rows)
    for problem in health_problems:
        print(f"smoke: health FAIL — {problem}")
    if health_problems:
        return 1
    print("smoke: health layer recovered from injected numeric faults")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
