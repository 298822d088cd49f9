"""Tests for the command-line entry point."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def _assert_bench_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig2", "--n", "4", "--num", "6"])
        assert args.command == "run"
        assert args.experiment == "fig2"
        assert args.n == 4

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    # The old perf-suite subcommand is gone (perfbench/run.py measures
    # performance); argparse rejects each of its former command lines.
    def test_bench_flags(self, capsys):
        _assert_bench_rejected(
            ["bench", "--bench-only", "event_throughput", "--no-bench-check"],
            capsys)

    def test_run_executor_flag_removed(self, capsys):
        # Fig. 2 and §5 launch Python-IR kernels, which have no batch
        # plan: the flag only ever chose the test oracle, so it is gone.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig2", "--executor", "fast"])
        assert excinfo.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_run_executor_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig2", "--executor", "turbo"])

    def test_bench_filter_and_executor_flags(self, capsys):
        _assert_bench_rejected(
            ["bench", "--filter", "ndrange", "--executor", "batch"], capsys)

    def test_bench_executor_rejects_unknown(self, capsys):
        _assert_bench_rejected(["bench", "--executor", "turbo"], capsys)

    def test_trace_subcommands(self):
        args = build_parser().parse_args(
            ["trace", "export", "x.ctb", "--format", "chrome", "-o", "x.json"])
        assert (args.command, args.trace_command) == ("trace", "export")
        assert args.store == "x.ctb" and args.out == "x.json"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro-fpga" in capsys.readouterr().out


class TestMain:
    def test_fig2_small(self, capsys):
        assert main(["run", "fig2", "--n", "4", "--num", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "info_seq[" in out

    def test_table1_small(self, capsys):
        assert main(["run", "table1", "--depth", "64"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "base" in out

    def test_limitations(self, capsys):
        assert main(["run", "limitations"]) == 0
        assert "stale" in capsys.readouterr().out

    def test_sec52(self, capsys):
        assert main(["run", "sec52"]) == 0
        assert "bound violations" in capsys.readouterr().out
