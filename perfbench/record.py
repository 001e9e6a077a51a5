"""Regenerate the benchmark's pinned files.

``reference``
    Run each workload's search once per input set and write
    ``perfbench/reference.json``: trajectory fingerprint, best reward,
    evaluation count and (tabular workloads) bench-table fingerprint.
    Regenerate only when a change is *meant* to alter search behaviour.
``baseline``
    Run ``perfbench/run.py`` on every workload for several seeds, print
    each end-to-end metric's median and quartile spread against its
    bound in ``BENCHMARK.json``, take one traced run per workload, and
    write ``perfbench/baseline.json`` (medians and quartiles, the
    ``info:`` values of every run, the traced per-layer metrics and the
    layer table ranked by self-time share).

Run from the repository root::

    python3 perfbench/record.py reference
    python3 perfbench/record.py baseline --runs 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as runner  # noqa: E402 — the benchmark entry point


def _reference(args) -> int:
    runner._prepare()
    import shutil

    from perfbench.workloads import WORKLOADS
    out = {}
    workdir = os.path.join(ROOT, ".perfbench_work", "reference")
    try:
        for name, workload in WORKLOADS.items():
            out[name] = {}
            for seed in range(runner.INPUT_SEEDS):
                os.makedirs(workdir, exist_ok=True)
                inputs = workload.inputs(seed, workdir)
                rep = runner.Rep(workload, inputs, workdir)
                entry = dict(rep.outcome)
                if "table_fingerprint" in inputs:
                    entry["table_fingerprint"] = inputs["table_fingerprint"]
                out[name][str(seed)] = entry
                print(f"{name} input set {seed}: {entry['evaluations']} "
                      f"evals, best {entry['best_reward']:.4f}, "
                      f"{rep.run_s:.2f} s", flush=True)
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_work"),
                      ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _run(workload: str, seed: int, seconds: int,
         trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result object and its ``info:`` line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}\n{proc.stderr}")
    *_, info_line, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect\n"
                           f"{proc.stderr}")
    return result, json.loads(info_line.partition("info: ")[2])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def _baseline(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    out = {"run_seconds": bench["run_seconds"], "seeds": list(seeds),
           "workloads": {}}
    worst = 0.0
    for name in workloads:
        values: dict[str, list[float]] = {}
        infos: dict[str, list] = {}
        for seed in seeds:
            result, info = _run(name, seed, bench["run_seconds"], 0)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            for key, value in info.items():
                infos.setdefault(key, []).append(value)
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={e['value']:.5g}" for m, e in result["metrics"].items()),
                flush=True)
        entry = {"end_to_end": {m: _summary(v) for m, v in values.items()},
                 "info": infos}
        for metric, summ in entry["end_to_end"].items():
            share = summ["spread"] / bounds[metric]
            if metric != "setup_s":
                worst = max(worst, share)
            print(f"{name:22s} {metric:12s} median {summ['median']:10.4f} "
                  f"spread {summ['spread']:6.3f} (bound {bounds[metric]}, "
                  f"{share:4.2f} of it)", flush=True)
        traced, _ = _run(name, seeds[0], bench["run_seconds"], 1)
        entry["per_layer"] = {m: e["value"]
                              for m, e in traced["metrics"].items()}
        entry["layers"] = _ranked_layers(traced["metrics"])
        out["workloads"][name] = entry
        if args.output:     # after every workload: a long run keeps its work
            with open(os.path.join(ROOT, args.output), "w") as fh:
                json.dump(out, fh, indent=1)
                fh.write("\n")
    print(f"largest spread as a share of its bound: {worst:.2f}")
    return 0


def _ranked_layers(metrics: dict) -> list[dict]:
    wall = metrics["wall_s"]["value"]
    rows = [{"layer": name[:-len(".self_s")],
             "calls": metrics[name[:-len(".self_s")] + ".calls"]["value"],
             "self_s": entry["value"]}
            for name, entry in metrics.items() if name.endswith(".self_s")]
    rows.append({"layer": "unattributed", "calls": 0,
                 "self_s": metrics["unattributed_s"]["value"]})
    rows = [r for r in rows if r["calls"] or r["self_s"]]
    for row in rows:
        row["share"] = row["self_s"] / wall
    return sorted(rows, key=lambda r: -r["self_s"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reference").set_defaults(fn=_reference)
    p = sub.add_parser("baseline")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--output", default=None,
                   help="write the summary here, relative to the root")
    p.set_defaults(fn=_baseline)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
