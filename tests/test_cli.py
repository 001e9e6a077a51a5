"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


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
        log = tmp_path / "run.jsonl"
        assert main(["search", "--problem", "combo", "--method", "rdm",
                     "--minutes", "15", "--output", str(log)]) == 0
        assert log.exists()
        assert main(["analyze", str(log), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "unique architectures" in out
        assert main(["posttrain", str(log), "--top", "2",
                     "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "acc_ratio" in out

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
                     ["--checkpoint-path", "c.json"], ["--resume", "c.json"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["search", *flag])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--help"])
        help_text = capsys.readouterr().out
        for gone in ("--events", "--checkpoint-path", "--resume "):
            assert gone not in help_text
