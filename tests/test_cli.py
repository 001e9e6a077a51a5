"""Tests for the command-line interface."""

import re

import numpy as np
import pytest

import repro.search
from repro import experiments as ex
from repro.cli import build_parser, main
from repro.hpc import NodeAllocation
from repro.search import SearchConfig, run_search


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search"])
        assert args.problem == "combo"
        assert args.method == "a3c"
        assert args.nodes == 256

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--method", "dqn"])


class TestCommands:
    def test_spaces(self, capsys):
        assert main(["spaces"]) == 0
        out = capsys.readouterr().out
        assert "combo-small" in out and "2.0968e+14" in out

    def test_baselines(self, capsys):
        assert main(["baselines"]) == 0
        out = capsys.readouterr().out
        assert "13,772,001" in out and "19,274,001" in out

    def test_search_analyze_posttrain_pipeline(self, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["search", "--problem", "combo", "--method", "rdm",
                     "--minutes", "15", "--journal-dir", str(run)]) == 0
        evaluations = re.search(r"evaluations: (\d+) ",
                                capsys.readouterr().out).group(1)
        assert main(["analyze", str(run), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert f"({evaluations} records, " in out
        assert "'space': 'combo-small'" in out
        assert "unique architectures" in out
        assert "did not end" not in out
        # the problem comes from the journal's space name
        assert main(["posttrain", str(run), "--top", "2",
                     "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "acc_ratio" in out

    def test_analyze_empty_log(self, tmp_path, capsys):
        # a search stopped before its first evaluation journals a run
        # with no records; analyze still prints its summary
        run = tmp_path / "run"
        assert main(["search", "--minutes", "0.5",
                     "--journal-dir", str(run)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(run)]) == 0
        out = capsys.readouterr().out
        assert "(0 records" in out
        assert "final best reward: n/a" in out
        assert "time to reward 0.5: not reached" in out

    def test_analyze_refuses_a_directory_without_a_run(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(tmp_path)])
        assert "journal.jsonl" in str(exc.value.code)

    @pytest.mark.parametrize("problem", ["combo", "uno", "nt3"])
    def test_search_reward_is_the_figures_landscape(self, problem,
                                                    monkeypatch):
        """``repro search`` scores architectures on the landscape the
        figures use (``experiments.surrogate_for``), at the problem's
        data fraction unless ``--fraction`` is given."""
        built = []

        class Stop(Exception):
            pass

        def capture(space, reward, cfg):
            built.append((space, reward))
            raise Stop

        monkeypatch.setattr("repro.cli.NasSearch", capture)
        for extra, fraction in (([], None), (["--fraction", "0.3"], 0.3)):
            with pytest.raises(Stop):
                main(["search", "--problem", problem, "--landscape-seed",
                      "5", *extra])
            space, cli = built.pop()
            ref = ex.surrogate_for(problem, "small", fraction, seed=5)
            assert space is cli.space and space.name == ref.space.name
            for name in ("train_fraction", "noise", "log_params_opt",
                         "reward_base", "timeout", "epochs"):
                assert getattr(cli, name) == getattr(ref, name), name
            rng = np.random.default_rng(0)
            for _ in range(8):
                arch = space.random_architecture(rng)
                assert cli.evaluate(arch, agent_seed=3) == \
                    ref.evaluate(arch, agent_seed=3)

    @pytest.mark.parametrize("flags,message", [
        (["--journal-fsync-every", "3"], "journal_fsync_every requires"),
        (["--backend", "serial"], "set max_iterations"),
        (["--checkpoint-every-records", "6"],
         "checkpoint_every_records requires journal_dir"),
    ])
    def test_bad_flag_combination_exits_with_a_message(self, flags,
                                                       message, capsys):
        """An invalid combination of search flags ends in one
        ``repro search: ...`` line and a non-zero exit, not a
        traceback, before the search starts."""
        with pytest.raises(SystemExit) as exc:
            main(["search", "--minutes", "1", *flags])
        text = exc.value.code
        assert isinstance(text, str) and text.startswith("repro search: ")
        assert message in text and "\n" not in text
        assert "running" not in capsys.readouterr().out

    def test_nt3_large_rejected(self):
        with pytest.raises(SystemExit):
            main(["search", "--problem", "nt3", "--size", "large",
                  "--minutes", "5"])

    def test_figure_command_validates_choice(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_figure_parser_accepts_known_figures(self):
        args = build_parser().parse_args(["figure", "fig4", "--problem",
                                          "nt3"])
        assert args.figure == "fig4" and args.problem == "nt3"


class TestFigureRecipes:
    """``repro figure`` runs each figure's searches from the recipe in
    :mod:`repro.experiments` that the benchmark suite asserts on."""

    @pytest.fixture(scope="class")
    def tiny_result(self):
        # a real, very short search, so every printing path has records
        cfg = SearchConfig(method="rdm", allocation=NodeAllocation(8, 2, 2),
                           wall_time=10 * 60.0, seed=0)
        return run_search(ex.space_for("combo"), ex.surrogate_for("combo"),
                          cfg)

    @staticmethod
    def record(monkeypatch, result):
        cached, searched = [], []

        def fake_cached(*args, **kwargs):
            cached.append(kwargs)
            return result

        def fake_search(space, reward, cfg):
            searched.append(cfg)
            return result

        monkeypatch.setattr(ex, "run_cached", fake_cached)
        monkeypatch.setattr(ex, "run_search", fake_search)
        monkeypatch.setattr(repro.search, "run_search", fake_search)
        return cached, searched

    def test_fig11_runs_in_the_timeout_regime(self, monkeypatch,
                                              tiny_result, capsys):
        cached, _ = self.record(monkeypatch, tiny_result)
        assert main(["figure", "fig11"]) == 0
        assert [kw.get("train_fraction") for kw in cached] == \
            [0.1, 0.2, 0.3, 0.4]
        assert [kw.get("log_params_opt") for kw in cached] == [7.2] * 4

    def test_fig13_runs_ten_replications(self, monkeypatch, tiny_result,
                                         capsys):
        _, searched = self.record(monkeypatch, tiny_result)
        assert main(["figure", "fig13"]) == 0
        assert [cfg.seed for cfg in searched] == list(range(100, 110))
        assert {cfg.method for cfg in searched} == {"a3c"}


class TestDurability:
    """``--journal-dir`` is the only on-disk log and checkpoint store,
    and ``--resume-durable`` the only way to continue a run from it."""

    @staticmethod
    def outcome(out):
        match = re.search(r"evaluations: (\d+) .*best reward: (\S+);", out)
        assert match, out
        return match.groups()

    def test_journal_dir_then_resume_durable(self, tmp_path, capsys):
        argv = ["search", "--method", "rdm", "--backend", "serial",
                "--iterations", "3", "--journal-dir", str(tmp_path / "run"),
                "--checkpoint-every-records", "6"]
        assert main(argv) == 0
        first = self.outcome(capsys.readouterr().out)
        # a second fresh launch must not append to the finished run
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert "already holds a search run" in message
        assert "--resume-durable" in message and "\n" not in message
        assert main(argv + ["--resume-durable"]) == 0
        assert self.outcome(capsys.readouterr().out) == first

    def test_removed_persistence_flags_rejected(self, capsys):
        for flag in (["--events", "run.jsonl"], ["--events-fsync-every", "2"],
                     ["--checkpoint-path", "c.json"], ["--resume", "c.json"],
                     ["--output", "run.jsonl"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["search", *flag])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--help"])
        help_text = capsys.readouterr().out
        for gone in ("--events", "--checkpoint-path", "--resume ",
                     "--output"):
            assert gone not in help_text
