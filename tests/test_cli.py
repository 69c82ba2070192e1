"""Tests for the command-line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


def _parser_surface(parser, path=()):
    """Every argument of every command path, as plain JSON-able rows.

    Independent of the interpreter's help formatter, unlike ``--help``.
    """
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            rows.append([list(path), action.option_strings, action.dest,
                         action.required,
                         [[choice.dest, choice.help]
                          for choice in action._choices_actions]])
            for name, subparser in action.choices.items():
                rows.extend(_parser_surface(subparser, path + (name,)))
            continue
        choices = list(action.choices) if action.choices is not None \
            else None
        rows.append([list(path), action.option_strings, action.dest,
                     repr(action.default), choices, action.nargs,
                     action.required, action.help, action.metavar,
                     getattr(action.type, "__name__", repr(action.type)),
                     type(action).__name__])
    return rows


#: sha256 of the parser surface; a changed option, default, choice or
#: help string of any command moves it.
PARSER_SURFACE_DIGEST = (
    "c7091a09dc1dcb0b7cefa7cdf324a5b5128e2fe0e32166b1d7877aee25e79e2d")


class TestParser:
    def test_parser_surface_is_pinned(self):
        surface = json.dumps(_parser_surface(build_parser()))
        digest = hashlib.sha256(surface.encode("utf-8")).hexdigest()
        assert digest == PARSER_SURFACE_DIGEST

    def test_building_the_parser_imports_no_subsystem(self):
        # Handlers import their subsystem when they run, so declaring
        # every command loads no repro package beyond `import repro`'s.
        probe = (
            "import sys, repro\n"
            "before = set(sys.modules)\n"
            "import repro.cli\n"
            "repro.cli.build_parser()\n"
            "packages = {'.'.join(name.split('.')[:2])\n"
            "            for name in set(sys.modules) - before\n"
            "            if name.startswith('repro.')}\n"
            "print(' '.join(sorted(packages - before)))\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        added = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, check=True)
        assert added.stdout.split() == ["repro.cli"]

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("table1", "figure3", "figure4", "figure5a",
                        "figure5b", "dse", "all"):
            assert parser.parse_args([command]).command == command

    def test_offload_defaults(self):
        args = build_parser().parse_args(["offload"])
        assert args.kernel == "matmul"
        assert args.host_mhz == 8.0
        assert args.iterations == 1
        assert not args.double_buffer

    def test_offload_kernel_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["offload", "--kernel", "nonesuch"])

    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint", "--all-builtin"])
        assert args.command == "lint"
        assert args.files == []
        assert args.all_builtin
        assert args.format == "pretty"
        assert not args.strict

    def test_lint_format_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lint", "--format", "xml"])

    def test_lint_requires_input(self):
        with pytest.raises(SystemExit):
            main(["lint"])

    def test_lint_bad_entry_regs_rejected(self, tmp_path):
        source = tmp_path / "x.s"
        source.write_text("halt\n")
        with pytest.raises(SystemExit):
            main(["lint", str(source), "--entry-regs", "r99"])

    def test_json_flag_on_experiments(self):
        parser = build_parser()
        for command in ("table1", "figure3", "figure4", "figure5a",
                        "figure5b", "offload", "metrics"):
            assert parser.parse_args([command, "--json"]).json

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.kernel == "matmul"
        assert args.out == "trace.json"
        assert args.flame is None
        assert not args.ascii

    def test_trace_kernel_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "nonesuch"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "hog" in out

    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "PULP peak efficiency" in out

    def test_figure4(self, capsys):
        assert main(["figure4"]) == 0
        assert "mean parallel speedup" in capsys.readouterr().out

    def test_figure5b_with_kernel(self, capsys):
        assert main(["figure5b", "--kernel", "matmul"]) == 0
        assert "matmul" in capsys.readouterr().out

    def test_offload(self, capsys):
        code = main(["offload", "--kernel", "strassen", "--host-mhz", "4",
                     "--iterations", "2", "--double-buffer"])
        assert code == 0
        out = capsys.readouterr().out
        assert "strassen" in out
        assert "verified: True" in out

    def test_table1_json(self, capsys):
        assert main(["table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table1"
        assert any(row["name"] == "matmul" for row in payload["rows"])

    def test_figure4_json(self, capsys):
        assert main(["figure4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "figure4"
        assert payload["mean_parallel_speedup"] > 1.0

    def test_offload_json(self, capsys):
        assert main(["offload", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "matmul"
        assert payload["verified"] is True
        assert payload["energy"]["total_energy_j"] > 0

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        flame = tmp_path / "flame.txt"
        code = main(["trace", "matmul", "--out", str(out),
                     "--flame", str(flame), "--iterations", "2"])
        assert code == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        lanes = {e["args"]["name"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "host" in lanes and "spi" in lanes
        assert sum(1 for lane in lanes
                   if lane.startswith("cluster.core")) >= 4
        assert flame.read_text().startswith("matmul_i8;pc_")

    def test_metrics(self, capsys):
        assert main(["metrics", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "critical phase" in out and "spi" in out

    def test_metrics_json(self, capsys):
        assert main(["metrics", "--json", "--iterations", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "matmul"
        assert payload["span_count"] > 0
        assert "spi.payload_bytes" in payload["counters"]


class TestFaultsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.scenarios == 11
        assert args.seed == 1
        assert args.kernel == "matmul"
        assert args.ber == pytest.approx(2e-5)
        assert not args.no_fallback
        assert args.trace is None

    def test_recoverable_campaign_exits_zero(self, capsys):
        # The first four default plans (clean, bit-errors, drop,
        # truncate) all recover without the host fallback.
        assert main(["faults", "--scenarios", "4"]) == 0
        out = capsys.readouterr().out
        assert "availability" in out
        assert "100.0%" in out

    def test_fallback_campaign_exits_three(self, capsys):
        # Eleven scenarios include the ladder-exhausting triple hang.
        assert main(["faults", "--scenarios", "11"]) == 3
        out = capsys.readouterr().out
        assert "host-fallback" in out

    def test_no_fallback_campaign_exits_four(self, capsys):
        assert main(["faults", "--scenarios", "11", "--no-fallback"]) == 4
        assert "failed" in capsys.readouterr().out

    def test_json_output_is_deterministic(self, capsys):
        assert main(["faults", "--scenarios", "5", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["faults", "--scenarios", "5", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["experiment"] == "faults"
        assert payload["availability"] == 1.0
        assert payload["scenarios"] == 5

    def test_trace_export(self, capsys, tmp_path):
        out = tmp_path / "faults-trace.json"
        assert main(["faults", "--scenarios", "2",
                     "--trace", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
