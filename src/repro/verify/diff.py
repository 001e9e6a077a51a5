"""Differential tester: eager GraphModel walk vs. compiled ExecutionPlan.

Every architecture the search can emit must produce the same forward
activations, input gradients, and parameter gradients under both
execution paths.  The tester samples random action sequences from the
Combo/Uno/NT3 spaces, compiles each into a plan, materializes it twice
with the same weight seed — one copy runs the compiled
:class:`~repro.nn.engine.ExecutionPlan`, the other the interpreted
:meth:`~repro.nn.graph.GraphModel.forward_eager` walk — and compares the
two node by node under per-op ULP-aware tolerances
(:mod:`repro.verify.tolerances`).

When a pair disagrees, :func:`shrink_failure` bisects the plan's
topological order for the earliest prefix whose ancestor-closure
sub-DAG already disagrees, reporting the smallest failing sub-plan.

Entry points: :func:`diff_plan` (one architecture),
:func:`run_space_diffs` (N sampled architectures of one space),
:func:`verify_report` (the full matrix ``make smoke``/``make verify``
record into ``VERIFY_report.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..nas.builder import Plan, compile_architecture
from ..nas.spaces import get_space
from ..util.atomicio import append_trend_record
from . import tolerances as tol

__all__ = ["DiffMismatch", "DiffReport", "ShrunkFailure", "diff_plan",
           "run_space_diffs", "verify_report", "write_verify_report",
           "SMALL_SHAPES", "SPACE_NAMES"]

#: working-scale input shapes for differential testing: large enough to
#: exercise every op (NT3 needs length >= 71 for the worst-case conv/pool
#: chain), small enough that hundreds of models build in seconds.  The
#: two drug inputs must share a width (Combo's MirrorNode weight sharing).
SMALL_SHAPES: dict[str, dict[str, tuple[int, ...]]] = {
    "combo": {"cell_expression": (24,), "drug1_descriptors": (30,),
              "drug2_descriptors": (30,)},
    "uno": {"cell_rnaseq": (24,), "dose": (1,), "drug_descriptors": (30,),
            "drug_fingerprints": (16,)},
    "nt3": {"rnaseq_expression": (96, 1)},
}

#: search space evaluated for each problem key
SPACE_NAMES = {"combo": "combo-small", "uno": "uno-small",
               "nt3": "nt3-small"}

#: width scale for the sampled spaces (keeps Dense(1000) at Dense(50))
_SPACE_SCALE = 0.05


def _head_ops(problem: str):
    if problem == "combo":
        from ..problems.combo import combo_head
        return combo_head()
    if problem == "uno":
        from ..problems.uno import uno_head
        return uno_head()
    if problem == "nt3":
        from ..problems.nt3 import nt3_head
        return nt3_head()
    raise ValueError(f"unknown problem {problem!r}")


@dataclass
class DiffMismatch:
    """One disagreeing quantity between the eager and compiled paths."""

    section: str          # "forward" | "input_grad" | "param_grad"
    name: str             # node, input, or parameter name
    max_abs: float
    max_ulp: float
    rtol: float
    atol: float

    def __str__(self) -> str:
        return (f"{self.section}:{self.name} |diff|={self.max_abs:.3e} "
                f"({self.max_ulp:.1f} ulp, rtol={self.rtol:.1e})")


@dataclass
class ShrunkFailure:
    """Smallest disagreeing sub-DAG of a failing architecture."""

    output: str           # plan node the sub-DAG ends at
    num_nodes: int        # plan nodes in the sub-DAG
    total_nodes: int      # plan nodes in the full architecture
    plan: Plan


@dataclass
class DiffReport:
    """Result of one eager-vs-compiled comparison."""

    space: str
    choices: tuple[int, ...]
    dtype: str
    agreed: bool
    mismatches: list[DiffMismatch] = field(default_factory=list)
    shrunk: ShrunkFailure | None = None

    def summary(self) -> str:
        if self.agreed:
            return f"{self.space} {list(self.choices)}: OK"
        worst = max(self.mismatches, key=lambda m: m.max_ulp)
        msg = (f"{self.space} {list(self.choices)} [{self.dtype}]: "
               f"{len(self.mismatches)} mismatch(es); worst {worst}")
        if self.shrunk is not None:
            msg += (f"; shrunk to {self.shrunk.num_nodes}/"
                    f"{self.shrunk.total_nodes} nodes ending at "
                    f"{self.shrunk.output!r}")
        return msg


def _compare_models(plan: Plan, dtype, data_seed: int, model_seed: int,
                    batch: int, training: bool) -> list[DiffMismatch]:
    """Materialize twice from one seed, run both paths, diff everything."""
    dt = np.dtype(dtype)
    compiled = plan.materialize(np.random.default_rng(model_seed), dtype=dt)
    eager = plan.materialize(np.random.default_rng(model_seed), dtype=dt)

    data_rng = np.random.default_rng(data_seed)
    inputs = {name: data_rng.standard_normal((batch,) + shape).astype(dt)
              for name, shape in plan.input_shapes.items()}

    out_c = compiled.forward(inputs, training=training)
    node_vals = compiled.node_values()
    grad_out = (data_rng.standard_normal(out_c.shape) / out_c.size).astype(dt)
    compiled.zero_grad()
    in_grads_c = compiled.backward(grad_out)

    eager.forward_eager(inputs, training=training)
    eager_vals = eager.eager_values
    eager.zero_grad()
    in_grads_e = eager.backward_eager(grad_out)

    mismatches: list[DiffMismatch] = []

    # forward activations, node by node in plan order
    for pn in plan.nodes:
        layer = eager.layers[pn.name]
        rtol, atol = tol.per_op_tolerance(layer, dt)
        a, b = eager_vals[pn.name], node_vals[pn.name]
        if not tol.agree(a, b, rtol, atol):
            mismatches.append(DiffMismatch(
                "forward", pn.name, tol.max_abs_diff(a, b),
                tol.ulp_distance(a, b, dt), rtol, atol))

    # input gradients
    grtol = gatol = tol.BACKWARD_SLACK * tol.DEFAULT_ULPS \
        * float(np.finfo(dt).eps)
    for name in plan.input_shapes:
        a, b = in_grads_e[name], in_grads_c[name]
        if not tol.agree(a, b, grtol, gatol):
            mismatches.append(DiffMismatch(
                "input_grad", name, tol.max_abs_diff(a, b),
                tol.ulp_distance(a, b, dt), grtol, gatol))

    # parameter gradients (same plan => same parameter order)
    for pc, pe in zip(compiled.parameters(), eager.parameters()):
        a, b = pe.grad, pc.grad
        if not tol.agree(a, b, grtol, gatol):
            mismatches.append(DiffMismatch(
                "param_grad", pc.name, tol.max_abs_diff(a, b),
                tol.ulp_distance(a, b, dt), grtol, gatol))
    return mismatches


def shrink_failure(plan: Plan, dtype, data_seed: int, model_seed: int,
                   batch: int, training: bool) -> ShrunkFailure | None:
    """Minimize a failing architecture to its smallest disagreeing sub-DAG.

    Bisects the plan's topological order for the earliest node whose
    ancestor-closure sub-plan already disagrees, then linearly confirms
    the prefix (bisection alone can overshoot when a probed node's
    closure bypasses the divergent op entirely).
    """
    order = [n.name for n in plan.nodes]

    def disagrees(name: str) -> bool:
        sub = plan.subplan(name)
        return bool(_compare_models(sub, dtype, data_seed, model_seed,
                                    batch, training))

    lo, hi = 0, len(order) - 1
    if not disagrees(order[hi]):
        return None  # full plan no longer fails under the sub-run protocol
    while lo < hi:
        mid = (lo + hi) // 2
        if disagrees(order[mid]):
            hi = mid
        else:
            lo = mid + 1
    # bisection assumes "node k's closure disagrees" is monotone in k,
    # which side branches that bypass the divergent node break; a forward
    # confirmation scan over the surviving prefix (which ends at a
    # disagreeing node, so next() always yields) pins the earliest one
    lo = next(i for i in range(lo + 1) if disagrees(order[i]))
    sub = plan.subplan(order[lo])
    return ShrunkFailure(order[lo], len(sub.nodes), len(plan.nodes), sub)


def diff_plan(plan: Plan, *, dtype=np.float32, data_seed: int = 0,
              model_seed: int = 0, batch: int = 4, training: bool = False,
              shrink: bool = True) -> DiffReport:
    """Differential-test one compiled architecture plan."""
    mismatches = _compare_models(plan, dtype, data_seed, model_seed,
                                 batch, training)
    shrunk = None
    if mismatches and shrink:
        shrunk = shrink_failure(plan, dtype, data_seed, model_seed,
                                batch, training)
    return DiffReport(plan.space, tuple(), str(np.dtype(dtype)),
                      not mismatches, mismatches, shrunk)


def run_space_diffs(problem: str, n: int, *, dtype=np.float32,
                    seed: int = 0, batch: int = 4, training: bool = False,
                    shrink: bool = True) -> list[DiffReport]:
    """Sample ``n`` random architectures from one space and diff each."""
    space = get_space(SPACE_NAMES[problem], scale=_SPACE_SCALE)
    shapes = SMALL_SHAPES[problem]
    head = _head_ops(problem)
    arch_rng = np.random.default_rng((seed, sorted(SPACE_NAMES).index(problem)))
    reports = []
    for i in range(n):
        arch = space.random_architecture(arch_rng)
        plan = compile_architecture(space, arch.choices, shapes, head)
        report = diff_plan(plan, dtype=dtype, data_seed=seed + i,
                           model_seed=seed + 1000 + i, batch=batch,
                           training=training, shrink=shrink)
        report.choices = tuple(arch.choices)
        reports.append(report)
    return reports


def verify_report(per_space: int = 8, *, seed: int = 0,
                  dtypes: tuple[str, ...] = ("float32", "float64"),
                  batch: int = 4) -> dict:
    """The smoke matrix: N archs per space per dtype, summarized as JSON."""
    spaces: dict[str, dict] = {}
    ok = True
    for problem in sorted(SPACE_NAMES):
        per_dtype: dict[str, dict] = {}
        for dtype in dtypes:
            reports = run_space_diffs(problem, per_space, dtype=dtype,
                                      seed=seed, batch=batch)
            failures = [r.summary() for r in reports if not r.agreed]
            ok = ok and not failures
            per_dtype[dtype] = {
                "sampled": len(reports),
                "disagreements": len(failures),
                "failures": failures,
            }
        spaces[problem] = per_dtype
    return {"ok": ok, "per_space": per_space, "seed": seed,
            "spaces": spaces}


def write_verify_report(path: str | Path, report: dict) -> None:
    """Append one timestamped report to a JSON file (list of runs),
    mirroring the ``BENCH_substrate.json`` trend-tracking format."""
    n = append_trend_record(path, "report", report)
    print(f"wrote {path} ({n} run{'s' if n != 1 else ''})")
