"""Tests for the command-line interface (python -m repro ...)."""

import re

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.frames == 32

    def test_train_preset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--preset", "turbo"])

    def test_chaos_flags(self):
        args = build_parser().parse_args(["chaos", "--smoke"])
        assert args.smoke and args.seed == 0
        args = build_parser().parse_args(["metrics-top", "--chaos"])
        assert args.chaos


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1", "--frames", "4"]) == 0
        out = capsys.readouterr().out
        assert "FRAMES/S ESP4ML" in out
        assert "paper" in out

    def test_fig8(self, capsys):
        assert main(["fig8", "--frames", "4"]) == 0
        out = capsys.readouterr().out
        assert "reduction" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "--app", "1nv_1cl", "--mode", "pipe",
                     "--frames", "4"]) == 0
        out = capsys.readouterr().out
        assert "frames/s" in out
        assert "#" in out


class TestMetricsTop:
    def test_final_dashboard(self, capsys):
        assert main(["metrics-top", "--requests", "1", "--frames",
                     "1"]) == 0
        final = capsys.readouterr().out.split("== final ==")[1]
        # The sampler costs no cycles: the serve smoke pin holds.
        assert "cycle 17,066" in final
        for tenant in ("classifier", "denoiser", "night-vision"):
            assert re.search(rf"^ {tenant} +1 +0 +0 ", final, re.M)
        assert "health: healthy" in final

    def test_chaos_demo_reshards(self, capsys):
        assert main(["metrics-top", "--chaos"]) == 0
        out = capsys.readouterr().out
        assert "reshard classifier" in out
        assert "classifier: cl1 -> cl2" in out


class TestHelp:
    def test_help_enumerates_every_command(self):
        """--help lists each subcommand with its one-line description
        (the COMMANDS table is the single source of truth)."""
        from repro.__main__ import COMMANDS

        text = build_parser().format_help()
        for name, description in COMMANDS.items():
            assert name in text
            # The first few words of each description survive
            # argparse's line wrapping.
            assert " ".join(description.split()[:3]) in text

    def test_commands_table_matches_registered_parsers(self):
        from repro.__main__ import COMMANDS

        parser = build_parser()
        action = next(a for a in parser._actions if a.choices)
        assert set(COMMANDS) == set(action.choices)


class TestFleetCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.policy == "all"
        assert args.instances == 4
        assert args.seed == 0 and not args.smoke

    def test_policy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--policy", "random"])

    def test_single_policy_run(self, capsys):
        assert main(["fleet", "--smoke", "--policy", "round-robin",
                     "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "policy=round-robin" in out
        assert "rejection breakdown" in out
