"""Differential tester: eager GraphModel walk vs. compiled ExecutionPlan.

Fast tests exercise one architecture per space plus the training-mode
and shrinker paths; the ``verify``-marked acceptance test samples 50
architectures per space in both dtypes (ISSUE 3 acceptance criterion:
zero disagreements).
"""

import numpy as np
import pytest

from repro.nas.builder import compile_architecture
from repro.nas.spaces import get_space
from repro.nn.layers import Dense
from repro.verify.diff import (SMALL_SHAPES, SPACE_NAMES, _head_ops,
                               _SPACE_SCALE, diff_plan, run_space_diffs,
                               verify_report)

PROBLEMS = sorted(SPACE_NAMES)


def _sample_plan(problem, arch_seed=3):
    space = get_space(SPACE_NAMES[problem], scale=_SPACE_SCALE)
    arch = space.random_architecture(np.random.default_rng(arch_seed))
    return compile_architecture(space, arch.choices, SMALL_SHAPES[problem],
                                _head_ops(problem))


class TestEagerPath:
    """The interpreted walk is a faithful oracle for the compiled plan."""

    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_one_architecture_agrees(self, problem, dtype):
        report = diff_plan(_sample_plan(problem), dtype=dtype)
        assert report.agreed, report.summary()

    @pytest.mark.parametrize("problem", PROBLEMS)
    def test_training_mode_agrees(self, problem):
        """Same-seed materialization gives identically seeded Dropout
        RNGs, so even training-mode (live dropout) passes must agree."""
        report = diff_plan(_sample_plan(problem), dtype="float64",
                           training=True)
        assert report.agreed, report.summary()

    def test_eager_values_cover_every_plan_node(self):
        plan = _sample_plan("combo")
        model = plan.materialize(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        inputs = {name: rng.standard_normal((2,) + shape)
                  for name, shape in plan.input_shapes.items()}
        out = model.forward_eager(inputs)
        assert set(model.eager_values) == ({n.name for n in plan.nodes}
                                           | set(plan.input_shapes))
        np.testing.assert_array_equal(
            out, model.eager_values[plan.output])

    def test_eager_backward_matches_helper_gradients(self):
        """backward_eager against the compiled backward on a plain
        dense model — exact same parameter order, close gradients."""
        plan = _sample_plan("uno")
        compiled = plan.materialize(np.random.default_rng(5))
        eager = plan.materialize(np.random.default_rng(5))
        rng = np.random.default_rng(6)
        inputs = {name: rng.standard_normal((3,) + shape)
                  for name, shape in plan.input_shapes.items()}
        g = rng.standard_normal(plan.output_shape)[None].repeat(3, axis=0)

        compiled.forward(inputs)
        compiled.zero_grad()
        gc = compiled.backward(g)
        eager.forward_eager(inputs)
        eager.zero_grad()
        ge = eager.backward_eager(g)
        for name in plan.input_shapes:
            np.testing.assert_allclose(ge[name], gc[name],
                                       rtol=1e-9, atol=1e-12)
        for pc, pe in zip(compiled.parameters(), eager.parameters()):
            assert pc.name == pe.name
            np.testing.assert_allclose(pe.grad, pc.grad,
                                       rtol=1e-9, atol=1e-12)


class TestShrinker:
    def test_shrinker_localizes_corrupted_node(self, monkeypatch):
        """Corrupt one compiled-path Dense mid-plan; the shrinker must
        bisect down to exactly that node's ancestor closure."""
        plan = _sample_plan("combo")
        probe = plan.materialize(np.random.default_rng(0))
        dense_nodes = [pn.name for pn in plan.nodes
                       if isinstance(probe.layers[pn.name], Dense)]
        target = dense_nodes[len(dense_nodes) // 2]

        orig = Dense.forward

        def corrupted(self, x, training=False):
            out = orig(self, x, training)
            # the eager oracle runs with the pool detached, so only the
            # compiled path sees the perturbation
            if self.name == target and self._pool is not None:
                out = out + 1e-2
            return out

        monkeypatch.setattr(Dense, "forward", corrupted)
        report = diff_plan(plan, dtype="float64", shrink=True)
        assert not report.agreed
        assert any(m.section == "forward" for m in report.mismatches)
        assert report.shrunk is not None
        assert report.shrunk.output == target
        assert report.shrunk.num_nodes < report.shrunk.total_nodes
        assert {n.name for n in report.shrunk.plan.nodes} <= \
            {n.name for n in plan.nodes}

    def test_shrunk_subplan_is_runnable(self):
        """subplan() closures stay materializable and runnable."""
        plan = _sample_plan("nt3")
        mid = plan.nodes[len(plan.nodes) // 2].name
        sub = plan.subplan(mid)
        assert sub.output == mid
        model = sub.materialize(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        inputs = {name: rng.standard_normal((2,) + shape)
                  for name, shape in sub.input_shapes.items()}
        out = model.forward(inputs)
        assert out.shape == (2,) + sub.output_shape


@pytest.mark.verify
class TestAcceptance:
    """ISSUE 3: >= 50 sampled architectures per space, both dtypes,
    zero disagreements."""

    @pytest.mark.parametrize("problem", PROBLEMS)
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_fifty_architectures_agree(self, problem, dtype):
        reports = run_space_diffs(problem, 50, dtype=dtype, seed=0)
        failures = [r.summary() for r in reports if not r.agreed]
        assert len(reports) == 50
        assert not failures, "\n".join(failures)

    def test_verify_report_matrix_is_ok(self):
        report = verify_report(per_space=8, seed=1)
        assert report["ok"], report
        for problem in PROBLEMS:
            for dtype in ("float32", "float64"):
                row = report["spaces"][problem][dtype]
                assert row["sampled"] == 8
                assert row["disagreements"] == 0


class TestVerifyAll:
    """``repro verify all`` checks every sampled architecture once."""

    def test_all_runs_the_diff_matrix_once(self, monkeypatch, tmp_path,
                                           capsys):
        from repro.verify import cli, diff

        calls = []

        def recording_diffs(problem, n, **kwargs):
            calls.append((problem, str(kwargs["dtype"])))
            return []

        monkeypatch.setattr(diff, "run_space_diffs", recording_diffs)
        monkeypatch.setattr(cli, "_cmd_grad", lambda args: 0)
        monkeypatch.setattr(cli, "_cmd_determinism", lambda args: 0)
        out = tmp_path / "report.json"
        assert cli.main(["all", "--output", str(out)]) == 0
        # the report pass is the diff matrix: 3 problems x 2 dtypes
        assert sorted(calls) == sorted(
            (p, d) for p in PROBLEMS for d in ("float32", "float64"))
        assert out.exists()
        assert "verify: ALL OK" in capsys.readouterr().out

    def test_all_has_no_first_pass_flags(self):
        from repro.verify import cli

        for flags in (["--dtype", "float32"], ["--training"]):
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(["all", *flags])
