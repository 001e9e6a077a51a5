"""``python -m repro.verify`` — the correctness-verification battery.

Subcommands
-----------
``diff``
    Differential-test N sampled architectures per space: eager
    interpreted walk vs. compiled execution plan, forward + backward.
``grad``
    Finite-difference check every public layer, loss, the LSTM policy
    and the PPO surrogate.
``determinism``
    Run same-seed search pairs for each method and compare trajectory
    fingerprints (bit-identical or fail).
``report``
    The ``diff`` matrix summarized as JSON, appended to
    ``VERIFY_report.json`` (BENCH-style trend tracking).
``all``
    The ``report`` matrix (which is the ``diff`` matrix in both dtypes,
    run once), then ``grad`` and ``determinism``; nonzero exit on any
    failure.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]


def _cmd_diff(args) -> int:
    from .diff import SPACE_NAMES, run_space_diffs

    dtypes = (("float32", "float64") if args.dtype == "both"
              else (args.dtype,))
    failed = 0
    for problem in sorted(SPACE_NAMES):
        for dtype in dtypes:
            reports = run_space_diffs(problem, args.per_space, dtype=dtype,
                                      seed=args.seed, batch=args.batch,
                                      training=args.training)
            bad = [r for r in reports if not r.agreed]
            failed += len(bad)
            print(f"diff {problem:6s} {dtype:8s} "
                  f"{len(reports) - len(bad)}/{len(reports)} agreed")
            for r in bad:
                print(f"  FAIL {r.summary()}")
    if failed:
        print(f"diff: {failed} architecture(s) disagreed")
        return 1
    print("diff: eager and compiled paths agree")
    return 0


def _cmd_grad(args) -> int:
    from .gradcheck import run_all

    results = run_all(verbose=not args.quiet)
    bad = [r for r in results if not r.ok]
    if bad:
        for r in bad:
            print(f"grad: FAIL {r.name}: worst {r.worst}")
        return 1
    print(f"grad: all {len(results)} checks passed")
    return 0


def _cmd_determinism(args) -> int:
    from ..hpc import NodeAllocation, TrainingCostModel
    from ..nas.spaces import get_space
    from ..problems.combo import COMBO_PAPER_SHAPES, combo_head
    from ..rewards import SurrogateReward
    from ..search import SearchConfig, run_search

    space = get_space("combo-small", scale=0.05)
    reward = SurrogateReward(space, COMBO_PAPER_SHAPES, combo_head(),
                             TrainingCostModel.combo_paper(),
                             epochs=1, train_fraction=0.1, timeout=600.0,
                             seed=7)
    failed = 0
    for method in ("a3c", "a2c", "rdm"):
        cfg = SearchConfig(method=method,
                           allocation=NodeAllocation(32, 4, 3),
                           wall_time=args.minutes * 60.0, seed=args.seed)
        fps = [run_search(space, reward, cfg).fingerprint()
               for _ in range(2)]
        same = fps[0] == fps[1]
        failed += 0 if same else 1
        print(f"determinism {method:4s} seed={args.seed} "
              f"{'ok' if same else 'FAIL'} {fps[0][:16]}…")
    if failed:
        print(f"determinism: {failed} method(s) not reproducible")
        return 1
    print("determinism: same seed => same fingerprint for all methods")
    return 0


def _cmd_report(args) -> int:
    from .diff import verify_report, write_verify_report

    report = verify_report(args.per_space, seed=args.seed, batch=args.batch)
    for problem, per_dtype in report["spaces"].items():
        for dtype, row in per_dtype.items():
            print(f"report {problem:6s} {dtype:8s} "
                  f"{row['sampled'] - row['disagreements']}/"
                  f"{row['sampled']} agreed")
            for failure in row["failures"]:
                print(f"  FAIL {failure}")
    if args.output:
        write_verify_report(args.output, report)
    return 0 if report["ok"] else 1


def _cmd_all(args) -> int:
    code = _cmd_report(args)
    code = _cmd_grad(args) or code
    code = _cmd_determinism(args) or code
    print("verify: " + ("ALL OK" if code == 0 else "FAILURES"))
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="correctness verification: differential testing, "
                    "gradient checking, determinism fingerprints")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, per_space_default=8):
        p.add_argument("--per-space", type=int, default=per_space_default,
                       help="sampled architectures per space")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--batch", type=int, default=4)

    p = sub.add_parser("diff", help="eager vs. compiled differential test")
    common(p)
    p.add_argument("--dtype", choices=("float32", "float64", "both"),
                   default="both")
    p.add_argument("--training", action="store_true",
                   help="compare in training mode (live dropout)")
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("grad", help="finite-difference gradient checks")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(fn=_cmd_grad)

    p = sub.add_parser("determinism",
                       help="same-seed searches => same fingerprints")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--minutes", type=float, default=20.0,
                   help="simulated minutes per search run")
    p.set_defaults(fn=_cmd_determinism)

    p = sub.add_parser("report",
                       help="diff matrix as JSON (VERIFY_report.json)")
    common(p)
    p.add_argument("--output", default=None, metavar="PATH",
                   help="append the report to this JSON file")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("all", help="run the whole battery")
    common(p, per_space_default=4)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--minutes", type=float, default=20.0)
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(fn=_cmd_all)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
