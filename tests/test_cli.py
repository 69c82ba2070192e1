"""Tests for the command-line interface."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import FAULTS_EXIT_DEGRADED, build_parser, main


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
    "89d0b11be4a6c008f1463cf7a701f0a034a7f27dac329a84ef74919d3f1c7e9d")


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

    @pytest.mark.parametrize("probe", [
        "import repro",
        "import repro.cli\nrepro.cli.build_parser()",
        "from repro.experiments.report import build_report\nbuild_report()",
        "from repro.serve.chaos import (pinned_campaign_config,\n"
        "    pinned_campaign_plans, run_campaign)\n"
        "run_campaign(pinned_campaign_config(seed=1),\n"
        "             pinned_campaign_plans(), chaos_seed=1)",
        "from repro.serve import PoissonWorkload\n"
        "from repro.serve.engine import ServeConfig, ServeEngine\n"
        "ServeEngine(ServeConfig(workload=PoissonWorkload(\n"
        "    rate=200.0, requests=50, seed=1))).run()",
        # Every pricing stage but the functional verify.
        "from repro.core import pricing\n"
        "from repro.core.system import HeterogeneousSystem\n"
        "from repro.kernels import all_kernels\n"
        "system = HeterogeneousSystem()\n"
        "for kernel in all_kernels():\n"
        "    kernel.memo_key()\n"
        "    c = pricing.characterize(system, kernel)\n"
        "    pricing.host_run(system, kernel)\n"
        "    pricing.risc_ops(kernel)\n"
        "    point = pricing.operating_point(system.envelope, 8e6,\n"
        "                                    c.activity)\n"
        "    pricing.price(system.cost_model, c, point, 8e6)",
        # Capacity planning shares the DSE's record hash and frontier,
        # not its evaluator.
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['capacity', 'sweep', '--rates', '100,400'])\n"
        "    main(['capacity', 'plan', '--no-verify', '--max-nodes', '3'])",
        # The commands themselves, with their exit codes.
        "import contextlib, io, sys\n"
        "from repro.cli import main\n"
        "for argv, code in [(['--help'], 0), (['table1'], 0),\n"
        "                   (['report'], 0), (['serve'], 0), (['chaos'], 3),\n"
        "                   (['capacity', 'sweep'], 0)]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            exit_code = main(argv)\n"
        "        except SystemExit as exited:\n"
        "            exit_code = exited.code\n"
        "    assert exit_code == code, (argv, exit_code)\n"
        "    assert 'numpy' not in sys.modules, argv",
    ], ids=["import", "parser", "report", "chaos", "serve", "pricing",
            "capacity", "commands"])
    def test_paths_without_array_code_load_no_numpy(self, probe):
        # Only the kernels' functional path computes on arrays; the IR,
        # pricing, the paper's experiments and serving never load numpy.
        probe += ("\nimport sys\n"
                  "print(' '.join(sorted(name for name in sys.modules\n"
                  "    if name.split('.')[0] == 'numpy')))\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.split() == []

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
                     "--flame", str(flame), "--iterations", "2", "--ascii"])
        assert code == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        trace = json.loads(out.read_text())
        lanes = {e["args"]["name"]: e["pid"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert "host" in lanes and "spi" in lanes
        # The DES cluster's lanes sit under the cycle-domain process.
        for lane in ("cluster.core0", "cluster.core1", "cluster.core2",
                     "cluster.core3", "tcdm.bank0", "dma.ch0"):
            assert lanes.get(lane) == 2, (lane, lanes)
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
        # The DES replay counts exactly the spans its lanes hold.
        routed = payload["counters"]["cluster.trace_events"]["value"]
        spans = sum(lane["spans"] for name, lane in payload["lanes"].items()
                    if name.startswith(("cluster.", "tcdm.", "dma.")))
        assert routed == spans > 0


class TestUnwritableOutput:
    """An output path that cannot be written fails before the command's
    work, as one ``<command>: cannot write <path>: <reason>`` line."""

    @pytest.mark.parametrize("argv, work", [
        (["trace", "matmul", "--out", "{missing}/t.json"],
         "repro.cli._traced_offload"),
        (["trace", "matmul", "--out", "{tmp}/t.json",
          "--flame", "{missing}/f.txt"], "repro.cli._traced_offload"),
        (["learn", "dataset", "--tiny", "--out", "{missing}/d.json"],
         "repro.learn.dataset.build_dataset"),
        (["learn", "train", "--dataset", "{tmp}/d.json",
          "--out", "{missing}/m.json"], "repro.learn.models.train_model"),
        (["chaos", "--serve-json", "{missing}/s.json"],
         "repro.serve.chaos.run_campaign"),
        (["serve", "--trace", "{missing}/t.json"],
         "repro.serve.engine.ServeEngine.run"),
        (["faults", "--trace", "{missing}/t.json"],
         "repro.faults.CampaignRunner.run"),
    ])
    def test_missing_directory_fails_before_the_work(self, argv, work,
                                                     tmp_path, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError(f"{work} ran")

        monkeypatch.setattr(work, not_reached)
        argv = [token.format(missing=tmp_path / "absent", tmp=tmp_path)
                for token in argv]
        path = next(token for token in argv if "absent" in token)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert str(exited.value) == \
            f"{argv[0]}: cannot write {path}: No such file or directory"

    def test_a_directory_is_not_writable_as_a_file(self, tmp_path):
        with pytest.raises(SystemExit) as exited:
            main(["trace", "matmul", "--out", str(tmp_path)])
        assert str(exited.value) == \
            f"trace: cannot write {tmp_path}: Is a directory"


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

    def test_trace_holds_one_characterization(self, capsys, tmp_path):
        # Every scenario's resilient offload reads the one memoized
        # characterization, so its OpenMP spans appear once, not once
        # per scenario.
        from repro.core import pricing

        pricing.clear()
        out = tmp_path / "faults-trace.json"
        assert main(["faults", "--scenarios", "11", "--seed", "1",
                     "--trace", str(out)]) == FAULTS_EXIT_DEGRADED
        events = json.loads(out.read_text())["traceEvents"]
        lanes = {(event["pid"], event["tid"]): event["args"]["name"]
                 for event in events if event["name"] == "thread_name"}
        omp = [(event["name"], event["ph"]) for event in events
               if event["ph"] in "BE"
               and lanes[event["pid"], event["tid"]] == "omp"]
        assert omp and len(omp) == len(set(omp))

    @pytest.mark.parametrize("flags", [[], ["--scenarios", "11",
                                            "--seed", "1"]])
    def test_trace_export_of_degraded_campaigns(self, capsys, tmp_path,
                                                flags):
        # Scenarios whose offloads and recovery attempts take different
        # times: the hub holds them back to back on shared lanes.
        out = tmp_path / "faults-trace.json"
        assert main(["faults", *flags, "--trace", str(out)]) \
            == FAULTS_EXIT_DEGRADED
        trace = json.loads(out.read_text())
        assert trace["traceEvents"]
