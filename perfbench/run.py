"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tabular_ambs --seed 3 \\
        --seconds 20 --trace 0

The workload's inputs come from ``--seed`` (folded onto the
``INPUT_SEEDS`` input sets that ``perfbench/reference.json`` pins).
The run repeats *setup + search* until ``--seconds`` have passed and
reports medians over the repetitions.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
repetitions and prints the per-layer table (see ``perfbench/layers.py``).

Machine-speed calibration: on a shared host the speed of the same code
drifts by ±25% over tens of seconds, longer than a run, so medians
within a run cannot remove it.  A fixed pure-Python loop, timed before
and after every repetition, tracks that drift (its run-level median
correlates ~0.9 with the workloads' throughput), and ``evals_per_s`` and
``setup_s`` are reported at the speed where that loop takes
``CALIBRATION_REF_S``: each repetition's time is scaled by
``CALIBRATION_REF_S / calibration``.  The loop never touches ``repro``,
so a change to the program moves these metrics exactly as it moves the
raw times, which the ``info:`` line prints too.

Every repetition's trajectory fingerprint, best reward and evaluation
count must equal the pinned reference, or the run reports
``"correct": false``.  The second-to-last line of standard output is
``info: {...}`` (repetitions, raw throughput, best reward, and the
workload-specific ``wall_s_per_sim_h`` / ``recover_s``); the last is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: distinct input sets; ``--seed`` is folded onto them so every run can
#: be checked against a pinned reference
INPUT_SEEDS = 10
#: repetitions a run measures at least, however long they take
MIN_REPS = 3
#: the calibration loop's time at the reference machine speed
CALIBRATION_REF_S = 0.025


def _prepare() -> None:
    """Pin the environment the program reads, then make ``repro`` (from
    this checkout's ``src``) and ``perfbench`` importable."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["REPRO_NN_DTYPE"] = "float32"
    os.environ["REPRO_BENCH_SCALE"] = "quick"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: {src}/repro not found; run from a full "
                 f"checkout of the repository")
    sys.path[:0] = [src, ROOT]


def _calibrate() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - start


def _reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark (Linux); where
    that is not permitted the peak also covers input generation."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _balanced_median(reps, value) -> float:
    """Median over input sets of each set's median, so every input set a
    run covered weighs the same however often it repeated."""
    by_set: dict[int, list[float]] = {}
    for rep in reps:
        by_set.setdefault(rep.input_set, []).append(value(rep))
    return statistics.median(statistics.median(v) for v in by_set.values())


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Rep:
    """One repetition: setup, search, and (durable workload) recover.

    Only the timings and a summary outlive the constructor unless
    ``keep`` is set: retained searches would grow the heap from one
    repetition to the next, and with it the garbage collector's work
    and the peak resident set.
    """

    def __init__(self, workload, inputs, workdir, tracer=None,
                 keep: bool = False) -> None:
        gc.collect()
        clock = time.perf_counter
        t0 = clock()
        search = workload.setup(inputs, workdir)
        t1 = clock()
        if tracer is not None:
            tracer.active = True
        try:
            result = search.run()
            t2 = clock()
            if workload.recover is not None:
                workload.recover(search)
            t3 = clock()
        finally:
            if tracer is not None:
                tracer.active = False
        self.input_set = inputs["seed"]
        self.setup_s, self.run_s, self.recover_s = t1 - t0, t2 - t1, t3 - t2
        self.wall_s = t3 - t1
        self.outcome = {"fingerprint": result.fingerprint(),
                        "best_reward": result.best().reward,
                        "evaluations": result.num_evaluations}
        self.failed = result.num_failed_evals
        self.sim_hours = result.end_time / 3600.0
        self.plan_stats = search.reward_model.plan_cache.stats()
        self.cached_frac = (sum(r.cached for r in result.records)
                            / len(result.records))
        self.sim_callbacks = search.sim._seq
        self.journal_bytes = (os.path.getsize(search.journal.journal_path)
                              if search.journal is not None else 0)
        self.search = search if keep else None


class Bench:
    """One benchmark invocation: inputs per input set (generated on first
    use), repetitions, and the checks against the pinned reference."""

    def __init__(self, workload, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh).get(workload.name, {})
        self.problems: list[str] = []
        self._inputs: dict[int, dict] = {}

    def input_set(self, index: int) -> int:
        """Input set of repetition ``index``: workloads with cheap inputs
        rotate through consecutive sets, so one run averages over
        several trajectories."""
        step = index if self.workload.rotates else 0
        return (self.seed + step) % INPUT_SEEDS

    def inputs(self, input_set: int) -> dict:
        if input_set not in self._inputs:
            self._inputs.clear()
            inputs = self.workload.inputs(input_set, self.workdir)
            table = inputs.get("table_fingerprint")
            want = self._expected(input_set).get("table_fingerprint", table)
            if table != want:
                self.problems.append(
                    f"input set {input_set}: bench table differs from the "
                    f"reference")
            self._inputs[input_set] = inputs
        return self._inputs[input_set]

    def _expected(self, input_set: int) -> dict:
        expected = self.reference.get(str(input_set))
        if expected is None:
            self.problems.append(f"no reference for input set {input_set}")
            return {}
        return expected

    def rep(self, index: int, tracer=None, keep: bool = False) -> Rep:
        input_set = self.input_set(index)
        inputs = self.inputs(input_set)
        before = _calibrate()
        rep = Rep(self.workload, inputs, self.workdir, tracer, keep)
        rep.speed = CALIBRATION_REF_S / ((before + _calibrate()) / 2)
        for key, want in self._expected(input_set).items():
            got = rep.outcome.get(key, want)
            if got != want:
                self.problems.append(f"input set {input_set}: {key} "
                                     f"{got!r} != reference {want!r}")
        return rep

    def check_recovery(self, rep: Rep) -> None:
        """Run a recovered search to the end once: it must reproduce the
        original trajectory from the journal replay."""
        from repro.search.journal import resume_durable
        search = rep.search
        resumed = resume_durable(search.space, search.reward_model,
                                 search.config)
        result = resumed.run()
        if result.fingerprint() != rep.outcome["fingerprint"]:
            self.problems.append("recovered run diverged from the original")
        if resumed.num_replay_loaded == 0 or any(
                ev.replay_pending() for ev in resumed.evaluators):
            self.problems.append("recovered run left journal replay unused")


def end_to_end(bench: Bench, seconds: float):
    """Untraced repetitions until ``seconds`` pass; medians over them."""
    durable = bench.workload.recover is not None
    warm = bench.rep(0, keep=durable)           # lazy set-up, caches
    if durable:
        bench.check_recovery(warm)
    del warm
    _reset_peak_rss()
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        reps.append(bench.rep(len(reps)))
    metrics = {
        "evals_per_s": (_balanced_median(
            reps, lambda r: r.outcome["evaluations"] / r.run_s / r.speed),
            "1/s"),
        "setup_s": (_balanced_median(reps, lambda r: r.setup_s * r.speed),
                    "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    first = reps[0]
    info = {"reps": len(reps),
            "input_sets": len({r.input_set for r in reps}),
            "speed": round(statistics.median(r.speed for r in reps), 4),
            "raw_evals_per_s": round(statistics.median(
                r.outcome["evaluations"] / r.run_s for r in reps), 2),
            "best_reward": first.outcome["best_reward"],
            "evaluations": first.outcome["evaluations"],
            "failed_eval_frac": first.failed / first.outcome["evaluations"],
            "fingerprint": first.outcome["fingerprint"][:16]}
    if bench.workload.simulated:
        info["wall_s_per_sim_h"] = statistics.median(
            r.run_s * r.speed / r.sim_hours for r in reps)
    if durable:
        info["recover_s"] = statistics.median(r.recover_s * r.speed
                                              for r in reps)
    return metrics, reps, info


def per_layer(bench: Bench, seconds: float):
    """Alternate untraced and traced repetitions of one input set; the
    per-layer numbers are means over the traced ones."""
    from perfbench import layers, trace
    bench.rep(0)                                # lazy set-up, caches
    plain: list[Rep] = []
    traced: list[tuple[Rep, dict, dict]] = []
    tracer = trace.Tracer()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(bench.rep(0))
        tracer.reset()
        undo = trace.install(layers.PATCHES, tracer)
        try:
            rep = bench.rep(0, tracer)
        finally:
            trace.uninstall(undo)
        traced.append((rep, trace.self_times(tracer.spans),
                       dict(tracer.counters)))
    if traced[0][0].outcome != plain[0].outcome:
        bench.problems.append("traced and untraced runs differ")

    metrics: dict[str, tuple[float, str]] = {}
    for layer in layers.LAYERS:
        calls = {t.get(layer, (0, 0.0))[0] for _, t, _ in traced}
        if len(calls) != 1:
            bench.problems.append(f"{layer}: call count differs between "
                                  f"repetitions")
        metrics[f"{layer}.calls"] = (max(calls), "count")
        metrics[f"{layer}.self_s"] = (statistics.fmean(
            t.get(layer, (0, 0.0))[1] for _, t, _ in traced), "s")
    for layer in layers.EXPECTED[bench.workload.name]:
        if metrics[f"{layer}.calls"][0] == 0:
            bench.problems.append(f"layer {layer} never fired")

    rep, _, counters = traced[0]
    wall = statistics.fmean(r.wall_s for r, _, _ in traced)
    self_total = sum(v for name, (v, _) in metrics.items()
                     if name.endswith(".self_s"))
    lookups = rep.plan_stats["hits"] + rep.plan_stats["misses"]
    metrics.update({
        "nas.plancache.hit_ratio": (
            rep.plan_stats["hits"] / lookups if lookups else 0.0, "ratio"),
        "nas.plancache.iso_hits": (rep.plan_stats["iso_hits"], "count"),
        "evaluator.cache_hit_ratio": (rep.cached_frac, "ratio"),
        "hpc.sim.callbacks": (rep.sim_callbacks, "count"),
        "search.journal.append.bytes": (rep.journal_bytes, "B"),
        "search.journal.checkpoint_save.bytes": (
            counters.get("search.journal.checkpoint_save.bytes", 0), "B"),
        "unattributed_s": (wall - self_total, "s"),
        "wall_s": (wall, "s"),
        "tracing_overhead_s": (
            statistics.median(r.wall_s for r, _, _ in traced)
            - statistics.median(r.wall_s for r in plain), "s"),
    })
    if metrics["unattributed_s"][0] < 0:
        bench.problems.append("layer self times exceed the wall time")
    _print_layer_table(metrics, wall)
    reps = [r for r, _, _ in traced] + plain
    return metrics, reps, {"traced_reps": len(traced),
                           "untraced_reps": len(plain)}


def _print_layer_table(metrics: dict, wall: float) -> None:
    """Layers ranked by self time, with their share of the wall time."""
    rows = sorted(((name[:-len(".self_s")], value) for name, (value, _)
                   in metrics.items() if name.endswith(".self_s")),
                  key=lambda row: -row[1])
    rows.append(("unattributed", metrics["unattributed_s"][0]))
    print(f"{'layer':36s} {'calls':>9s} {'self_s':>9s} {'share':>7s}")
    for layer, self_s in rows:
        calls = metrics.get(f"{layer}.calls", (0, ""))[0]
        if calls or layer == "unattributed":
            print(f"{layer:36s} {calls:9d} {self_s:9.4f} "
                  f"{100.0 * self_s / wall:6.2f}%")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare()
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")

    scratch = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(scratch, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    bench = Bench(workload, args.seed, workdir)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, reps, info = measure(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass            # another run still uses it

    for problem in dict.fromkeys(bench.problems):
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    print("info: " + json.dumps(info))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": sum(r.outcome["evaluations"] for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
