"""Substrate micro-benchmarks: NN training step, architecture compile +
materialize, PPO update, and discrete-event kernel throughput.

These are conventional pytest-benchmark timings (multiple rounds) that
guard the performance of the pieces every experiment is built on.  The
workloads shared with ``make bench`` are built by
:data:`repro.perf.BENCHMARKS`, so both harnesses time the same code.
"""

import numpy as np

from repro.hpc.sim import Simulator, Timeout
from repro.nas.builder import build_model
from repro.nas.spaces import combo_small
from repro.perf import BENCHMARKS
from repro.problems.combo import combo_head


def bench_dense_training_step(benchmark):
    """The shipped default: float32 compiled plan + fused flat Adam."""
    benchmark(BENCHMARKS["dense_train_step"]())


def bench_dense_training_step_float64(benchmark):
    """Seed-equivalent numerics: float64 weights, per-parameter Adam."""
    benchmark(BENCHMARKS["dense_train_step_float64_unfused"]())


def bench_compile_architecture(benchmark):
    plans = benchmark(BENCHMARKS["compile_architecture_x20"]())
    assert all(p.total_params >= 0 for p in plans)


def bench_materialize_model(benchmark):
    space = combo_small(scale=0.02)
    shapes = {"cell_expression": (30,), "drug1_descriptors": (40,),
              "drug2_descriptors": (40,)}
    rng = np.random.default_rng(0)
    arch = space.random_architecture(rng)

    def materialize():
        return build_model(space, arch.choices, shapes, combo_head(), rng)

    model = benchmark(materialize)
    assert model.built


def bench_ppo_update(benchmark):
    benchmark(BENCHMARKS["ppo_update"]())


def bench_lstm_policy_step(benchmark):
    """One autoregressive rollout: horizon fused LSTM steps + sampling."""
    rollout = benchmark(BENCHMARKS["lstm_policy_step"]())
    assert rollout.actions.shape[0] == 11


def bench_plan_cache_hit(benchmark):
    """Warm-cache plan lookups for the 20 archs of bench_compile."""
    hit_batch = BENCHMARKS["plan_cache_hit_x20"]()
    plans = benchmark(hit_batch)
    assert all(p.total_params >= 0 for p in plans)
    assert hit_batch.cache.stats()["misses"] == 20  # every timed lookup hit


def bench_search_iteration(benchmark):
    """Short end-to-end a3c surrogate search through the runner stack."""
    res = benchmark(BENCHMARKS["search_iteration"]())
    assert res.num_evaluations > 0


def bench_des_event_throughput(benchmark):
    def run_sim():
        sim = Simulator()

        def ticker(n):
            for _ in range(n):
                yield Timeout(1.0)

        for _ in range(20):
            sim.process(ticker(500))
        sim.run()
        return sim.now

    now = benchmark(run_sim)
    assert now == 500.0
