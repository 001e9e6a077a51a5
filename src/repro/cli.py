"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``spaces``
    List the available search spaces and their exact cardinalities.
``baselines``
    Print the manually designed networks' parameter counts (paper scale).
``search``
    Run a simulated NAS experiment; ``--journal-dir`` keeps its journal.
``analyze``
    Summarize a journaled run (trajectory, top architectures, uniqueness).
``posttrain``
    Post-train the top architectures of a journaled run against the
    baseline and print the ratio table.
``verify``
    Run the correctness battery (differential tester, gradient checks,
    determinism fingerprints); see ``python -m repro.verify --help``.
``bench``
    Tabular benchmark mode (sweep / info / compare); see
    ``python -m repro.bench --help`` and ``docs/benchmark.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments as ex
from .analytics import (best_so_far_trajectory, cache_hit_fraction,
                        time_to_reward, top_k_architectures,
                        unique_architectures)
from .events import RUN_END
from .health import GuardConfig
from .hpc import NodeAllocation
from .nas.spaces import SPACES, get_space
from .posttrain import post_train
from .problems import get_problem
from .search import NasSearch, SEARCH_METHODS, SearchConfig, resume_durable
from .search.journal import JOURNAL_NAME, read_journal, read_records

__all__ = ["main"]


def _cmd_spaces(_args) -> int:
    print(f"{'space':<14} {'decisions':>10} {'cardinality':>14}")
    for name in SPACES:
        space = get_space(name)
        print(f"{name:<14} {space.num_actions:>10} {space.size:>14.4e}")
    return 0


def _cmd_baselines(_args) -> int:
    print(f"{'benchmark':<10} {'paper-scale parameters':>24}")
    for name in ("combo", "uno", "nt3"):
        problem = get_problem(name)
        print(f"{name:<10} {problem.baseline_params(paper_scale=True):>24,}")
    return 0


def _space_name(problem: str, size: str) -> str:
    name = f"{problem}-{size}"
    if name not in SPACES:
        raise SystemExit(f"no space {name!r}; NT3 only has a small space")
    return name


def _cmd_search(args) -> int:
    if args.list_methods:
        print(f"{'method':<10} {'learns':>6}  summary")
        for name in sorted(SEARCH_METHODS):
            m = SEARCH_METHODS[name]
            print(f"{name:<10} {'yes' if m.proposer.learns else 'no':>6}  "
                  f"{m.summary}")
        return 0
    _space_name(args.problem, args.size)    # NT3 has no large space
    reward = ex.surrogate_for(args.problem, args.size, args.fraction,
                              seed=args.landscape_seed)
    space = reward.space
    alloc = NodeAllocation.paper_scaling(args.nodes, args.scaling)
    guard = (GuardConfig(mode=args.guard_mode)
             if args.guard_mode != "off" else None)
    try:
        cfg = SearchConfig(
            method=args.method, allocation=alloc,
            wall_time=args.minutes * 60.0, seed=args.seed, guard=guard,
            max_restarts=args.max_restarts, backend=args.backend,
            max_iterations=args.iterations, preemptible=args.preempt,
            journal_dir=args.journal_dir,
            journal_fsync_every=args.journal_fsync_every,
            checkpoint_every_records=args.checkpoint_every_records)
        if args.resume_durable:
            # crash-anywhere restart: load the newest intact checkpoint
            # generation and replay the journal suffix so completed
            # evaluations are never re-executed
            search = resume_durable(space, reward, cfg)
        else:
            search = NasSearch(space, reward, cfg)
    except ValueError as exc:   # bad flags, or an unusable --journal-dir
        raise SystemExit(f"repro search: {exc}") from None
    print(f"running {args.method} on {space.name} "
          f"({alloc.num_agents} agents x {alloc.workers_per_agent} "
          f"workers, {args.minutes:.0f} simulated min, "
          f"{args.backend} backend) ...")
    if search.num_replay_loaded:
        print(f"resume: {search.num_replay_loaded} journaled "
              f"evaluation(s) armed for replay")
    result = search.run()
    if result.preempted:
        if cfg.journal_dir is None:
            print("preempted; the checkpoint was not written to disk "
                  "(pass --journal-dir to keep one)")
        else:
            print(f"preempted; resumable checkpoint in "
                  f"{cfg.journal_dir}/generations (rerun with "
                  f"--resume-durable to continue)")
    best = (f"{result.best().reward:.3f}" if result.records else "n/a")
    print(f"evaluations: {result.num_evaluations} "
          f"({result.unique_architectures} unique); "
          f"best reward: {best}; "
          f"utilization: "
          f"{result.cluster.mean_utilization(max(result.end_time, 1e-9)):.2f}")
    if guard is not None or cfg.max_restarts:
        print(f"health: rollbacks={result.num_rollbacks} "
              f"restarts={result.num_restarts}")
    if result.worker_stats:
        ws = result.worker_stats
        print(f"workers: spawns={ws.get('worker_spawns', 0)} "
              f"crashes={ws.get('worker_crashes', 0)} "
              f"timeouts={ws.get('worker_timeouts', 0)} "
              f"respawns={ws.get('respawns', 0)} "
              f"quarantined={ws.get('quarantined', 0)}")
    return 0


def _read_run(directory):
    """A journal directory's events, records and run metadata."""
    try:
        events = read_journal(Path(directory) / JOURNAL_NAME)
        return (events, *read_records(events))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro: {directory}: {exc}") from None


def _cmd_analyze(args) -> int:
    events, records, metadata = _read_run(args.journal_dir)
    print(f"journal: {args.journal_dir} ({len(records)} records, {metadata})")
    if events.num_skipped:
        print(f"skipped {events.num_skipped} unreadable journal record(s)")
    if events[-1].kind != RUN_END:
        print("the run did not end: records may include unconsumed evals")
    print(f"unique architectures: {unique_architectures(records)}")
    print(f"cache-hit fraction: {cache_hit_fraction(records):.2f}")
    traj = best_so_far_trajectory(records)
    best = f"{traj[-1, 1]:.3f}" if len(traj) else "n/a"
    print(f"final best reward: {best}")
    t50 = time_to_reward(records, 0.5)
    print(f"time to reward 0.5: {'%.0f min' % t50 if t50 else 'not reached'}")
    print(f"\ntop {args.top} architectures:")
    for rec in top_k_architectures(records, args.top):
        print(f"  reward={rec.reward:+.3f} params={rec.params:>12,} "
              f"{rec.arch}")
    return 0


def _cmd_posttrain(args) -> int:
    _events, records, metadata = _read_run(args.journal_dir)
    # a space name leads with its problem: combo-small, nt3-small#cap2
    problem_name = metadata.get("space", "").split("-")[0] or args.problem
    if problem_name not in ex.PAPER_SETUP:
        raise SystemExit("the journal names no known problem; pass --problem")
    problem = get_problem(problem_name)
    _, _, cost = ex.PAPER_SETUP[problem_name]
    top = top_k_architectures(records, args.top)
    report = post_train(problem, [t.arch for t in top], epochs=args.epochs,
                        time_model=cost())
    print(f"baseline: metric={report.baseline_metric:.4f} "
          f"params={report.baseline_params:,}")
    print(f"{'acc_ratio':>9} {'Pb/P':>8} {'Tb/T':>8} {'params':>12}")
    for e in sorted(report.entries, key=lambda e: -e.accuracy_ratio):
        print(f"{e.accuracy_ratio:9.3f} {e.params_ratio:8.2f} "
              f"{e.time_ratio:8.2f} {e.params:12,}")
    return 0


def _cmd_verify(args) -> int:
    """Forward to the verification battery's own CLI."""
    from .verify.cli import main as verify_main
    return verify_main(args.verify_args or ["all"])


def _cmd_bench(args) -> int:
    """Forward to the tabular-benchmark CLI."""
    from .bench.cli import main as bench_main
    return bench_main(args.bench_args or ["--help"])


_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig11",
            "fig13", "table1")


def _cmd_figure(args) -> int:
    """Regenerate one of the paper's figures/tables as printed series."""
    problem = args.problem or "combo"
    if args.figure == "fig4":
        ex.print_trajectories(f"Fig 4 ({problem}, small space)",
                              ex.fig4_runs(problem))
    elif args.figure == "fig5":
        ex.print_utilizations(f"Fig 5 ({problem}, small space)",
                              ex.fig5_runs(problem))
    elif args.figure == "fig6":
        results = ex.fig6_runs()
        ex.print_trajectories("Fig 6a (combo, large space)", results)
        ex.print_utilizations("Fig 6b (combo, large space)", results)
    elif args.figure == "fig7":
        result = ex.run_cached(problem, "a3c")
        ex.print_posttrain(f"Fig 7 ({problem}, small space)",
                           ex.post_train_top(problem, result))
    elif args.figure == "fig8":
        result = ex.run_cached(problem, "a3c", size="large")
        ex.print_posttrain(f"Fig 8 ({problem}, large space)",
                           ex.post_train_top(problem, result, large=True))
    elif args.figure == "fig9":
        ex.print_utilizations("Fig 9 (combo large, scaling)", ex.fig9_runs())
    elif args.figure == "fig11":
        results = {f"{int(f * 100)}%": res
                   for f, res in ex.fig11_runs().items()}
        ex.print_trajectories("Fig 11 (combo large, fidelity)", results)
    elif args.figure == "fig13":
        from .analytics import quantile_bands
        reps = ex.fig13_runs()
        grid = np.linspace(ex.WALL_MINUTES * 0.15,
                           ex.WALL_MINUTES * 0.95, 9)
        bands = quantile_bands([r.records for r in reps], grid)
        print("t(min)   q10    q50    q90")
        for t, row in zip(grid, bands):
            print(f"{t:6.0f} {row[0]:6.3f} {row[1]:6.3f} {row[2]:6.3f}")
    else:  # table1
        for prob in ("combo", "uno", "nt3"):
            result = ex.run_cached(prob, "a3c")
            report = ex.post_train_top(prob, result)
            rows = report.summary_rows()
            print(f"\n{prob}:")
            for row in rows:
                print(f"  {row['network']:<18} params={row['params']:>12,} "
                      f"time={row['train_time_s']:>9.1f}s "
                      f"metric={row['metric']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable RL-based NAS for cancer DL (SC 2019 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("spaces", help="list search spaces").set_defaults(
        fn=_cmd_spaces)
    sub.add_parser("baselines",
                   help="paper-scale baseline parameter counts"
                   ).set_defaults(fn=_cmd_baselines)

    p = sub.add_parser("search", help="run a simulated NAS experiment")
    p.add_argument("--problem", choices=("combo", "uno", "nt3"),
                   default="combo")
    p.add_argument("--size", choices=("small", "large"), default="small")
    p.add_argument("--method", choices=tuple(sorted(SEARCH_METHODS)),
                   default="a3c")
    p.add_argument("--list-methods", action="store_true",
                   help="list the registered search methods and exit")
    p.add_argument("--nodes", type=int, default=256,
                   choices=(256, 512, 1024))
    p.add_argument("--scaling", choices=("agents", "workers"),
                   default="agents")
    p.add_argument("--minutes", type=float, default=360.0,
                   help="simulated wall-clock minutes")
    p.add_argument("--fraction", type=float,
                   help="training-data fraction for reward estimation "
                        "(default: the problem's, 0.1 for combo and 1.0 "
                        "for uno and nt3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--landscape-seed", type=int, default=7,
                   help="seed of the surrogate reward landscape")
    p.add_argument("--guard-mode", choices=("off", "check", "recover"),
                   default="off",
                   help="numerical health guards (repro.health): check "
                        "= detect and crash the offending agent, "
                        "recover = roll back + LR backoff first")
    p.add_argument("--max-restarts", type=int, default=0,
                   help="resurrect a crashed agent from its last "
                        "iteration boundary up to this many times")
    p.add_argument("--backend",
                   choices=("balsam", "serial", "thread", "process"),
                   default="balsam",
                   help="evaluation backend: balsam = simulated service "
                        "(default); serial/thread/process run the reward "
                        "model in host time (process = supervised worker "
                        "pool) and require --iterations")
    p.add_argument("--iterations", type=int,
                   help="stop every agent after this many iterations "
                        "(required for non-balsam backends)")
    p.add_argument("--preempt", action="store_true",
                   help="handle SIGTERM/SIGINT gracefully: stop at the "
                        "next event boundary, save a checkpoint "
                        "generation into --journal-dir's generations/ "
                        "directory (nothing without --journal-dir), and "
                        "exit cleanly (continue with --resume-durable)")
    p.add_argument("--journal-dir",
                   help="durability root: write a checksummed "
                        "write-ahead journal of every search event "
                        "(<dir>/journal.jsonl) plus verified checkpoint "
                        "generations (<dir>/generations/) under this "
                        "directory (repro.search.journal); a fresh run "
                        "refuses a directory that already holds one")
    p.add_argument("--journal-fsync-every", type=int, metavar="N",
                   help="fsync the journal every Nth record (default: "
                        "flush only; requires --journal-dir)")
    p.add_argument("--checkpoint-every-records", type=int, metavar="N",
                   help="save a checkpoint generation every N reward "
                        "records (requires --journal-dir) — the "
                        "durability clock that works on every backend, "
                        "including host-time ones where virtual time "
                        "never advances")
    p.add_argument("--resume-durable", action="store_true",
                   help="resume a crashed run from --journal-dir: load "
                        "the newest intact checkpoint generation and "
                        "replay the journal suffix (completed "
                        "evaluations are never re-executed)")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("analyze", help="summarize a journaled run")
    p.add_argument("journal_dir", metavar="DIR", help="a --journal-dir")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("posttrain", help="post-train a run's top archs")
    p.add_argument("journal_dir", metavar="DIR", help="a --journal-dir")
    p.add_argument("--problem", choices=("combo", "uno", "nt3"))
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(fn=_cmd_posttrain)

    p = sub.add_parser("figure",
                       help="regenerate one of the paper's figures")
    p.add_argument("figure", choices=_FIGURES)
    p.add_argument("--problem", choices=("combo", "uno", "nt3"))
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("verify",
                       help="correctness battery (see repro.verify)")
    p.add_argument("verify_args", nargs=argparse.REMAINDER,
                   help="arguments for python -m repro.verify")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench",
                       help="tabular benchmark mode (see repro.bench)")
    p.add_argument("bench_args", nargs=argparse.REMAINDER,
                   help="arguments for python -m repro.bench")
    p.set_defaults(fn=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
