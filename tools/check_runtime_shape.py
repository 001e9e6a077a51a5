#!/usr/bin/env python
"""Static shape gate over the search-runtime seam modules (stdlib only).

The proposer-seam refactor's contract is structural: the runner stays a
thin composition root, the agent loop stays method-agnostic, and each
proposer module stays small enough to read in one sitting.  This gate
enforces the same ≤60-line function budget as
``tests/test_search_runtime.py::TestRunnerShape`` but over *all* the
seam modules, so a future method can't quietly grow a new monolith in
``ambs.py`` or ``evolution.py`` either.  The chaos harness is held to
the same budget, which keeps each of its scenarios a row of one table
served by one runner, check and report, and so is the evaluation
front-end, which holds the one submit loop every backend inherits.  The
lifecycle hooks and the checkpoint/boundary module are held to it too:
they carry the one agent snapshot every method shares.  The RL
methods' parameter-server exchange is covered as part of the proposer
module.  So is the simulated Balsam service, whose job pilot carries
every node failure, crash, straggler and outage of the fault model.
Docstrings don't count against the budget.  Run via ``make lint``.

Exit status: 0 when every function fits, 1 with an offender report.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

MAX_FUNCTION_LINES = 60

SEAM_MODULES = (
    "src/repro/search/runner.py",
    "src/repro/search/loop.py",
    "src/repro/search/proposer.py",
    "src/repro/search/ambs.py",
    "src/repro/search/evolution.py",
    "src/repro/search/methods.py",
    "src/repro/search/hooks.py",
    "src/repro/search/checkpoint.py",
    "src/repro/search/chaos.py",
    "src/repro/evaluator/base.py",
    "src/repro/evaluator/balsam.py",
)


def function_length(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    """Body lines of ``fn``, excluding a leading docstring."""
    body_start = fn.body[0].lineno
    if isinstance(fn.body[0], ast.Expr) and \
            isinstance(fn.body[0].value, ast.Constant):
        body_start = (fn.body[1].lineno if len(fn.body) > 1
                      else fn.end_lineno)
    return fn.end_lineno - body_start + 1


def check_module(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            length = function_length(node)
            if length > MAX_FUNCTION_LINES:
                offenders.append(
                    f"{path}:{node.lineno}: {node.name} is {length} "
                    f"lines (> {MAX_FUNCTION_LINES})")
    return offenders


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    offenders: list[str] = []
    checked = 0
    for rel in SEAM_MODULES:
        path = root / rel
        if not path.exists():
            print(f"check_runtime_shape: missing seam module {path}",
                  file=sys.stderr)
            return 1
        offenders.extend(check_module(path))
        checked += 1
    if offenders:
        print("check_runtime_shape: function line budget exceeded:",
              file=sys.stderr)
        for line in offenders:
            print("  " + line, file=sys.stderr)
        return 1
    print(f"check_runtime_shape: {checked} seam modules, every function "
          f"<= {MAX_FUNCTION_LINES} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
