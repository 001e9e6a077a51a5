"""``python -m repro.bench`` — tabular NAS benchmark workflows.

Commands
--------
``sweep``
    Enumerate a (capped) search space, evaluate every isomorphism class
    through an evaluator backend, and persist a resumable arch→metrics
    table.  Rerunning with the same arguments resumes a killed sweep.
``info``
    Inspect a table directory: rows, optimum, fingerprint.
``compare``
    Replay N seeded searches per registered method (a3c / a2c / rdm /
    ambs / evolution) against one shared table via
    :class:`~repro.rewards.tabular.TabularReward` and print the
    exact-regret comparison report.

See ``docs/benchmark.md`` for the full workflow.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..analytics.regret import compare_report, regret_summary
from ..experiments import PAPER_SETUP
from ..hpc import NodeAllocation
from ..nas.plancache import SignatureResolver
from ..nas.spaces import get_space
from ..rewards import SurrogateReward, TabularReward
from ..search import SEARCH_METHODS, SearchConfig, run_search
from .subspace import capped_space, enumeration_count
from .sweep import SweepConfig, sweep_space
from .table import ArchTable

__all__ = ["main", "build_parser", "space_from_metadata"]

_METHODS = tuple(sorted(SEARCH_METHODS))


def _build_space(problem: str, size: str, scale: float, cap_ops: int | None):
    space = get_space(f"{problem}-{size}", scale=scale)
    if cap_ops is not None:
        space = capped_space(space, cap_ops)
    return space


def space_from_metadata(metadata: dict):
    """Rebuild the exact space a table was swept with (the manifest's
    metadata is the recipe)."""
    return _build_space(metadata["problem"], metadata["size"],
                        metadata["scale"], metadata.get("cap_ops"))


def _surrogate_for(space, problem: str, landscape_seed: int,
                   fraction: float) -> SurrogateReward:
    shapes, head, cost = PAPER_SETUP[problem]
    return SurrogateReward(space, shapes, head(), cost(), epochs=1,
                           train_fraction=fraction, timeout=600.0,
                           seed=landscape_seed)


def _tabular_for(table: ArchTable, miss: str) -> TabularReward:
    space = space_from_metadata(table.metadata)
    shapes, head, _ = PAPER_SETUP[table.metadata["problem"]]
    resolver = SignatureResolver(space, shapes, head())
    return TabularReward(table, resolver, miss=miss)


# ----------------------------------------------------------------------
def _cmd_sweep(args) -> int:
    space = _build_space(args.problem, args.size, args.scale, args.cap_ops)
    reward = _surrogate_for(space, args.problem, args.landscape_seed,
                            args.fraction)
    metadata = {"problem": args.problem, "size": args.size,
                "scale": args.scale, "cap_ops": args.cap_ops,
                "cap": args.cap, "seed": args.seed,
                "reward": {"kind": "surrogate",
                           "landscape_seed": args.landscape_seed,
                           "fraction": args.fraction}}
    cfg = SweepConfig(backend=args.backend, workers=args.workers,
                      batch_size=args.batch_size,
                      shard_size=args.shard_size, cap=args.cap,
                      seed=args.seed)
    planned = enumeration_count(space, args.cap)
    print(f"sweeping {space.name} (|S| = {space.size:,}, "
          f"enumerating {planned:,}) over the {args.backend} backend "
          f"into {args.out} ...")
    report = sweep_space(space, reward, args.out, cfg, metadata=metadata)
    print(f"enumerated {report.enumerated} | evaluated {report.evaluated} "
          f"| resumed {report.resumed} | iso-skips {report.iso_skips} "
          f"| invalid {report.invalid} | failed {report.failed}")
    print(f"table: {report.total_rows} rows in {report.shards} shards; "
          f"fingerprint {report.fingerprint[:16]}…  "
          f"({report.elapsed:.1f}s)")
    return 0


def _cmd_info(args) -> int:
    table = ArchTable.load(args.table)
    print(f"table: {args.table}")
    print(f"space: {table.space_name}")
    print(f"rows (isomorphism classes): {len(table)}")
    print(f"metadata: {json.dumps(table.metadata, sort_keys=True)}")
    if len(table):
        opt = table.optimum()
        arch = f"{opt.space}[{','.join(map(str, opt.choices))}]"
        print(f"optimum: reward={opt.reward:+.4f} params={opt.params:,} "
              f"arch={arch}")
    print(f"fingerprint: {table.fingerprint()}")
    return 0


def _cmd_compare(args) -> int:
    table = ArchTable.load(args.table)
    if not len(table):
        raise SystemExit(f"table {args.table} is empty")
    optimum = table.optimum().reward
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in _METHODS:
            raise SystemExit(f"unknown method {m!r}; choose from "
                             f"{_METHODS}")
    alloc = NodeAllocation(
        args.agents * (args.workers + 1) + 1, args.agents, args.workers)
    wall = args.minutes * 60.0
    print(f"comparing {methods} on {table.space_name} "
          f"({len(table)} rows, optimum {optimum:+.4f}); "
          f"{args.runs} seeded replays each ...")

    runs: dict[str, list] = {}
    for method in methods:
        replicates = []
        for rep in range(args.runs):
            seed = args.seed + rep
            reward = _tabular_for(table, args.miss)
            result = run_search(
                reward.resolver.structure, reward,
                SearchConfig(method=method, allocation=alloc,
                             wall_time=wall, seed=seed,
                             population_size=args.population,
                             tournament_size=args.tournament))
            replicates.append(result.records)
            summary = regret_summary(result.records, optimum,
                                     method=method)
            print(f"  {method} seed={seed}: evals={summary['evaluations']} "
                  f"final_regret={summary['final_regret']:.4f} "
                  f"optimum_found={summary['found_optimum']}")
        runs[method] = replicates

    report = compare_report(runs, optimum,
                            trajectories=args.trajectories)
    print(f"\n{'method':<10} {'reps':>4} {'mean_regret':>12} "
          f"{'min':>8} {'max':>8} {'opt_hits':>8}")
    for name, m in report["methods"].items():
        print(f"{name:<10} {m['replicates']:>4} "
              f"{m['mean_final_regret']:>12.4f} "
              f"{m['min_final_regret']:>8.4f} "
              f"{m['max_final_regret']:>8.4f} {m['optimum_hits']:>8}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.output}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Tabular NAS benchmark: sweep a space once, then "
                    "serve instant lookups with exact-regret analytics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep a (capped) space into a "
                                     "resumable arch→metrics table")
    p.add_argument("--problem", choices=("combo", "uno", "nt3"),
                   default="combo")
    p.add_argument("--size", choices=("small", "large"), default="small")
    p.add_argument("--scale", type=float, default=0.05,
                   help="layer-width scale of the swept networks")
    p.add_argument("--cap-ops", type=int, default=None,
                   help="truncate every decision to its first K options "
                        "(a true sub-space with exact cardinality)")
    p.add_argument("--cap", type=int, default=None,
                   help="stratified-sample this many architectures when "
                        "the space exceeds the cap (default: exhaustive)")
    p.add_argument("--out", required=True, help="table directory")
    p.add_argument("--backend", choices=("serial", "thread", "process"),
                   default="serial")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--shard-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0,
                   help="stratified-sampling seed")
    p.add_argument("--landscape-seed", type=int, default=7)
    p.add_argument("--fraction", type=float, default=1.0,
                   help="training-data fraction of the reward estimates")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("info", help="inspect a table directory")
    p.add_argument("table")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("compare",
                       help="replay seeded searches against one table "
                            "and report exact regret per method")
    p.add_argument("table")
    p.add_argument("--methods", default="a3c,rdm",
                   help=f"comma list from {','.join(_METHODS)}")
    p.add_argument("--population", type=int, default=20,
                   help="method=evolution: aging-population window")
    p.add_argument("--tournament", type=int, default=5,
                   help="method=evolution: tournament draw size")
    p.add_argument("--runs", type=int, default=3,
                   help="seeded replays per method")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--minutes", type=float, default=30.0,
                   help="simulated wall-clock minutes per replay")
    p.add_argument("--agents", type=int, default=4)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--miss", choices=("error", "fallback", "failure"),
                   default="failure",
                   help="table-miss policy during replays (sampled "
                        "tables are incomplete; failure is the safe "
                        "default)")
    p.add_argument("--trajectories", action="store_true",
                   help="include method-labeled per-replicate regret "
                        "trajectories in the report")
    p.add_argument("--output", help="write the JSON report here")
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
