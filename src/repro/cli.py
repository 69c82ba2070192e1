"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro table1 [--json]
    python -m repro figure3 [--json]
    python -m repro figure4 [--json]
    python -m repro figure5a [--json]
    python -m repro figure5b [--kernel matmul] [--json]
    python -m repro offload --kernel "svm (RBF)" --host-mhz 8 --iterations 32
    python -m repro trace matmul --out trace.json [--flame flame.txt]
    python -m repro metrics [--kernel matmul] [--json]
    python -m repro lint kernel.s [--format json|sarif] [--entry-regs r1,r2]
    python -m repro lint kernel.s --cores 4 --preset r5=0@8 [--dma-out 0x700:0x780]
    python -m repro lint --all-builtin
    python -m repro faults --scenarios 11 --seed 1 [--json] [--trace t.json]
    python -m repro dse --host-mhz 2,4,8 --budget-mw 5,10 --jobs 4 \
        --cache-dir .dse-cache [--json]
    python -m repro dse --spec space.json --jobs 4
    python -m repro serve --nodes 4 --policy power-cap --arrival-rate 250 \
        --faults on --seed 7 [--json] [--trace serve.json]
    python -m repro chaos [--json] [--alerts alerts.log]
    python -m repro chaos --plan storm.json --chaos-seed 7 --nodes 4
    python -m repro chaos --empty --serve-json report.json
    python -m repro bench [--quick] [--check] [--profile bench.json]
    python -m repro bench --compare BENCH_7.json BENCH_8.json
    python -m repro learn dataset --out ds.json [--tiny] [--jobs 4]
    python -m repro learn train --dataset ds.json --out model.json
    python -m repro learn eval --dataset ds.json [--max-regret 0.15]
    python -m repro learn predict --model model.json --program dwconv3_i8
    python -m repro serve --scheduler predicted --model model.json
    python -m repro capacity plan --arrival-rate 300 --power-budget 40
    python -m repro capacity validate [--tolerance 0.10] [--json]
    python -m repro capacity sweep --nodes 4 --rates 50:700:50
    python -m repro all

Every command is declared here, in :func:`build_parser`, together with
its handler.  A handler imports its subsystem when it runs, so a command
pays start-up only for what it uses.  A :class:`~repro.errors.ReproError`
escaping a handler exits 1 with one ``command: message`` line.

Every experiment subcommand accepts ``--json`` for a machine-readable
dump of the same results.  ``trace`` runs one offload under the unified
telemetry hub plus a DES replay of the cluster and writes a Chrome
trace-event JSON loadable in Perfetto; ``metrics`` prints the telemetry
counters/lane/phase snapshot.

``lint`` exits 1 when any ERROR-severity finding exists (any finding at
all with ``--strict``), so it can gate CI.

``faults`` runs a seeded fault-injection campaign against the resilient
offload runtime and prints the survival/recovery matrix.  It exits 0
when every scenario ends clean or recovered, 3 when any scenario needed
the degraded OpenMP host fallback, and 4 when any scenario produced no
result at all.

``serve`` drives a fleet of accelerator nodes from a seeded request
stream (see ``docs/SERVING.md``) and prints queueing statistics.  It
exits 0 when the run is healthy and 3 when the deadline-miss rate
(misses plus drops, over arrivals) exceeds ``--miss-threshold``.

``chaos`` replays fleet-scope fault campaigns (crash storms, brownout
droop, flapping nodes, arrival surges) through the same serving engine
with the resilience machinery armed, and prints a per-scenario
resilience scorecard (see ``docs/RELIABILITY.md``).  It exits 0 when
every scenario stays healthy, 3 when an SLO error budget is exhausted,
and 4 on fleet collapse (availability under ``--collapse-threshold``).
With ``--empty`` (and ``--resilience auto``) the run is bit-identical
to a plain ``serve`` of the same spec and seed.

``learn`` builds labeled datasets from the DSE oracle, trains the
seeded models, and scores them leave-one-kernel-out (see
``docs/LEARNING.md``).  ``learn eval`` exits 3 when the primary model's
mean energy regret exceeds ``--max-regret``; ``serve --scheduler
predicted --model model.json`` routes the fleet through the trained
model's operating points.

``capacity`` is the analytic fast path over the serving fleet (see
``docs/CAPACITY.md``): ``plan`` searches heterogeneous fleet
compositions under a power budget and re-verifies the Pareto frontier
through the DES, ``validate`` runs the pinned analytic-vs-DES grid,
and ``sweep`` answers what-if arrival-rate questions in milliseconds.
``validate`` (and ``plan``, unless ``--no-verify``) exits 3 when a
tolerance is breached.

``bench`` times every engine's hot path under pinned seeds and writes
the next ``BENCH_<n>.json`` trajectory entry (see
``docs/BENCHMARKS.md``).  ``--check`` compares the fresh run against
the latest committed entry and exits 5 when any suite's median
throughput regressed by more than ``--threshold`` (default 20%);
``--compare OLD NEW`` judges two existing files without running.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional

from repro.core.system import HeterogeneousSystem
from repro.errors import ReproError
from repro.kernels import BENCHMARK_NAMES, kernel_by_name
from repro.units import mhz

#: ``faults`` exit codes: degraded (host fallback happened) vs failed
#: (a scenario produced no result at all) are distinct and non-zero so
#: CI can gate on either.
FAULTS_EXIT_DEGRADED = 3
FAULTS_EXIT_FAILED = 4

#: ``serve`` exit code when the miss rate breaches ``--miss-threshold``.
SERVE_EXIT_MISSES = 3

#: ``learn eval`` exit code when the primary model's mean energy regret
#: exceeds ``--max-regret``.
LEARN_EXIT_REGRET = 3

#: ``capacity`` exit code when a validation or verification tolerance
#: is breached.
CAPACITY_EXIT_TOLERANCE = 3

#: ``bench`` exit code when ``--check`` / ``--compare`` find a
#: beyond-threshold throughput regression.
BENCH_EXIT_REGRESSION = 5


def _json_dump(payload, sort_keys: bool = False) -> str:
    return json.dumps(payload, indent=2, sort_keys=sort_keys)


# -- the paper's experiments ---------------------------------------------------

def _cmd_experiment(args) -> str:
    """One paper experiment, as text or ``--json``; ``all`` renders
    every one in paper order."""
    from repro.experiments import figure3, figure4, figure5, table1

    # command -> (title, run, to_json_dict, render)
    experiments = {
        "table1": ("Table I", table1.run, table1.to_json_dict,
                   table1.render),
        "figure3": ("Figure 3", figure3.run, figure3.to_json_dict,
                    figure3.render),
        "figure4": ("Figure 4", figure4.run, figure4.to_json_dict,
                    figure4.render),
        "figure5a": ("Figure 5a", figure5.run_figure5a,
                     figure5.figure5a_to_json_dict, figure5.render_figure5a),
        "figure5b": ("Figure 5b", figure5.run_figure5b,
                     figure5.figure5b_to_json_dict, figure5.render_figure5b),
    }
    if args.command == "all":
        return "\n\n".join(f"{'=' * 12} {title} {'=' * 12}\n{render()}"
                           for title, _, _, render in experiments.values())
    _, run, to_json_dict, render = experiments[args.command]
    kernel = getattr(args, "kernel", None)
    result = run(kernel_by_name(kernel)) if kernel else run()
    if args.json:
        return _json_dump(to_json_dict(result))
    return render(result)


def _cmd_offload(args) -> str:
    system = HeterogeneousSystem()
    kernel = kernel_by_name(args.kernel)
    result = system.offload(kernel, host_frequency=mhz(args.host_mhz),
                            iterations=args.iterations,
                            double_buffered=args.double_buffer)
    if args.json:
        return _json_dump(result.to_json_dict())
    return result.report()


def _cmd_report(_args) -> str:
    from repro.experiments.report import build_report
    return build_report()


# -- telemetry commands ---------------------------------------------------------

#: Benchmark -> built-in machine program used for the flamegraph view
#: (the instruction-level counterpart where one exists).
_FLAME_PROGRAMS = {"matmul": "matmul_i8"}

#: DES replay cap: chunk cycles are scaled down so one replay stays
#: interactive while preserving the compute/memory mix.
_DES_CYCLE_CAP = 20_000.0


def _des_cluster_lanes(hub, kernel, target) -> None:
    """Replay the kernel's first parallel loop on the DES cluster, which
    emits its per-core / per-bank / per-DMA-channel lanes into *hub*
    (the active hub)."""
    from repro.pulp.cluster import Cluster
    from repro.pulp.timing import kernel_op_streams

    streams = kernel_op_streams(kernel.build_program(), target,
                                Cluster.CORES, cycle_cap=_DES_CYCLE_CAP)
    before = len(hub.spans)
    run = Cluster().run(streams,
                        dma_jobs=[(0, 0, 1024, True), (0, 4096, 1024, False)])
    hub.count("cluster.trace_events", len(hub.spans) - before,
              domain="cycles")
    hub.gauge("cluster.wall_cycles", run.wall_cycles, domain="cycles")
    hub.gauge("cluster.conflict_rate", run.conflict_rate, domain="cycles")


def _traced_offload(args):
    """Run one offload (plus the DES cluster replay) under a live hub."""
    from repro.obs import Telemetry, use_telemetry

    hub = Telemetry(enabled=True)
    system = HeterogeneousSystem()
    kernel = kernel_by_name(args.kernel)
    with use_telemetry(hub):
        result = system.offload(kernel, host_frequency=mhz(args.host_mhz),
                                iterations=args.iterations,
                                double_buffered=args.double_buffer)
        _des_cluster_lanes(hub, kernel, system.target)
    return hub, result


def _cmd_trace(args) -> str:
    from repro.obs import (
        TraceAnalyzer,
        render_span_timeline,
        write_chrome_trace,
        write_flamegraph,
    )

    hub, result = _traced_offload(args)
    write_chrome_trace(hub, args.out)
    lines = [f"wrote Chrome trace to {args.out} "
             f"({len(hub.spans)} spans, {len(hub.lanes())} lanes) — "
             f"open in https://ui.perfetto.dev"]
    if args.flame:
        from repro.machine.programs import profile_builtin

        builtin = _FLAME_PROGRAMS.get(args.kernel, "matmul_i8")
        profiled = profile_builtin(builtin)
        write_flamegraph(profiled, args.flame, root=builtin)
        lines.append(f"wrote collapsed stacks of {builtin!r} to {args.flame}")
    analyzer = TraceAnalyzer(hub)
    phase, share = analyzer.critical_phase()
    lines.append("")
    lines.append(result.report())
    lines.append("")
    lines.append(f"critical phase {phase!r} ({share:.1%} of phase time), "
                 f"overlap efficiency {analyzer.overlap_efficiency():.1%}, "
                 f"attributed energy {hub.total_energy():.6g} J")
    if args.ascii:
        lines.append("")
        lines.append(render_span_timeline(hub, domain="wall"))
        lines.append("")
        lines.append(render_span_timeline(hub, domain="cycles"))
    return "\n".join(lines)


def _cmd_metrics(args) -> str:
    from repro.obs import metrics_snapshot, render_metrics

    hub, result = _traced_offload(args)
    snapshot = metrics_snapshot(hub, extra={
        "kernel": result.kernel_name,
        "verified": result.verified,
        "model_energy_j": result.timing.energy.total_energy,
    })
    if args.json:
        return _json_dump(snapshot)
    return render_metrics(snapshot)


# -- static analysis -----------------------------------------------------------

def _parse_entry_regs(text: str):
    registers = set()
    for token in filter(None, (t.strip() for t in text.split(","))):
        name = token.lower().lstrip("r")
        try:
            index = int(name)
        except ValueError:
            raise SystemExit(f"lint: bad register {token!r} in --entry-regs")
        if not 0 <= index < 32:
            raise SystemExit(f"lint: register {token!r} out of range")
        registers.add(index)
    return frozenset(registers)


def _parse_presets(tokens, cores: int):
    """``--preset rN=base[@step]`` -> per-core register preset dicts.

    Core *c* gets ``base + c * step`` (the SPMD static-schedule idiom:
    one register carries the core's chunk start).
    """
    presets = [dict() for _ in range(cores)]
    for token in tokens or ():
        try:
            register_text, value_text = token.split("=", 1)
            step = 0
            if "@" in value_text:
                value_text, step_text = value_text.split("@", 1)
                step = int(step_text, 0)
            base = int(value_text, 0)
            register = int(register_text.lower().lstrip("r"))
            if not 0 <= register < 32:
                raise ValueError(token)
        except ValueError:
            raise SystemExit(f"lint: bad --preset {token!r} "
                             "(expected rN=base[@step])")
        for core in range(cores):
            presets[core][register] = base + core * step
    return presets


def _parse_dma_out(text):
    if not text:
        return None
    try:
        lo_text, hi_text = text.split(":", 1)
        region = (int(lo_text, 0), int(hi_text, 0))
    except ValueError:
        raise SystemExit(f"lint: bad --dma-out {text!r} (expected lo:hi)")
    if region[0] >= region[1]:
        raise SystemExit(f"lint: empty --dma-out region {text!r}")
    return region


def _spmd_findings(instructions, lines, args):
    from repro.analysis.concurrency import analyze_spmd

    report = analyze_spmd(
        instructions, cores=args.cores,
        presets=_parse_presets(args.preset, args.cores), lines=lines,
        dma_out=_parse_dma_out(args.dma_out), banks=args.banks)
    return report.findings


def _cmd_lint(args) -> str:
    from repro.analysis.linter import lint_builtin_programs, lint_source
    from repro.errors import IsaError
    from repro.isa.validate import Severity

    if args.cores < 0:
        raise SystemExit("lint: --cores must be >= 0")
    entry_regs = _parse_entry_regs(args.entry_regs or "")
    reports = []
    if args.all_builtin:
        reports.extend(lint_builtin_programs(
            cores=args.cores if args.cores >= 2 else 4))
    if not args.all_builtin and not args.files:
        raise SystemExit("lint: give one or more .s files or --all-builtin")
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise SystemExit(f"lint: cannot read {path}: {exc}")
        try:
            report = lint_source(source, name=path, entry_regs=entry_regs)
        except IsaError as exc:
            # Assembly itself failed; surface it like a finding and fail.
            args._exit_code = 1
            reports.append(None)
            print(f"{path}: assembly error: {exc}", file=sys.stderr)
            continue
        if args.cores >= 2 and report.cfg is not None:
            from repro.machine.assembler import assemble_unit

            unit = assemble_unit(source)
            report.findings.extend(
                _spmd_findings(unit.instructions, unit.lines, args))
        reports.append(report)

    failed = any(report is None or not report.ok for report in reports)
    if args.strict:
        failed = failed or any(
            report is not None and any(
                f.severity is not Severity.INFO for f in report.findings)
            for report in reports)
    if failed:
        args._exit_code = 1
    good = [report for report in reports if report is not None]
    if args.format == "json":
        return "[" + ",\n".join(r.to_json() for r in good) + "]"
    if args.format == "sarif":
        from repro.analysis.sarif import SARIF_SCHEMA, SARIF_VERSION, to_sarif

        runs = []
        for report in good:
            runs.extend(to_sarif(report.findings, uri=report.name)["runs"])
        return _json_dump({"$schema": SARIF_SCHEMA,
                           "version": SARIF_VERSION, "runs": runs})
    return "\n\n".join(r.render() for r in good)


# -- fault campaigns ------------------------------------------------------------

def _cmd_faults(args) -> str:
    from repro.faults import CampaignRunner, build_campaign

    scenarios = build_campaign(
        args.scenarios, seed=args.seed, kernel=args.kernel,
        host_mhz=args.host_mhz, iterations=args.iterations,
        bit_error_rate=args.ber)
    runner = CampaignRunner(fallback_enabled=not args.no_fallback)
    if args.trace:
        from repro.obs import Telemetry, use_telemetry, write_chrome_trace

        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            result = runner.run(scenarios)
        write_chrome_trace(hub, args.trace)
    else:
        result = runner.run(scenarios)
    if result.failed:
        args._exit_code = FAULTS_EXIT_FAILED
    elif result.degraded:
        args._exit_code = FAULTS_EXIT_DEGRADED
    if args.json:
        return _json_dump(result.to_json_dict())
    return result.render()


# -- serving --------------------------------------------------------------------

#: The ``--faults on`` per-node plans, cycled across the fleet: a clean
#: node, a transiently hanging one, one that dies (three consecutive
#: boot failures exhaust the ladder), and a browned-out slow one.
_SERVE_FAULT_PLANS = (
    ("clean", ()),
    ("kernel_hang", (2,)),
    ("boot_failure", (3,)),
    ("brownout", (0.85,)),
)


def _serve_workload(args):
    from repro.serve import (
        ClosedLoopWorkload,
        MmppWorkload,
        PoissonWorkload,
        TraceWorkload,
    )

    if args.replay:
        return TraceWorkload.from_json(args.replay)
    requests = args.requests if args.requests > 0 else None
    if requests is None and args.duration is None:
        raise SystemExit(f"{args.command}: give --requests > 0 or a --duration")
    common = dict(
        deadline_factor=(args.deadline_factor
                         if args.deadline_factor > 0 else None),
        iterations=args.iterations, seed=args.seed)
    if args.workload == "mmpp":
        return MmppWorkload(
            rates=(args.arrival_rate, args.arrival_rate * args.burst),
            requests=requests, duration=args.duration, **common)
    if args.workload == "closed":
        # Each client issues the same number of requests, so a run can
        # serve exactly --requests only for a multiple of --clients.
        # ClosedLoopWorkload rejects a client count below 1.
        if args.clients >= 1 and (requests is None
                                  or requests % args.clients):
            raise SystemExit(
                f"{args.command}: --requests {args.requests} must be a "
                f"positive multiple of --clients {args.clients} for "
                f"--workload closed")
        per_client = max(1, (requests or args.clients) // max(1, args.clients))
        return ClosedLoopWorkload(
            clients=args.clients, think_s=args.think_ms * 1e-3,
            requests_per_client=per_client, **common)
    return PoissonWorkload(rate=args.arrival_rate, requests=requests,
                           duration=args.duration, **common)


def _serve_book_and_policy(args):
    """Resolve the pricing backend and dispatch policy of a serve run."""
    from repro.serve import AnalyticServiceBook
    from repro.serve.scheduler import Policy

    if args.scheduler is None and args.model is None:
        return AnalyticServiceBook(host_mhz=args.host_mhz), \
            Policy(args.policy)
    # Extension territory: the learned book and/or a registered policy.
    import repro.learn.service as learn_service
    from repro.serve.scheduler import registered_policies

    policy = args.scheduler if args.scheduler is not None \
        else Policy(args.policy)
    if isinstance(policy, str) and policy not in registered_policies():
        known = ", ".join(registered_policies())
        raise SystemExit(f"{args.command}: unknown --scheduler {policy!r}; "
                         f"registered: {known}")
    if args.model is None:
        raise SystemExit(
            f"{args.command}: --scheduler {args.scheduler} needs --model "
            "<trained model JSON> (train one with: python -m repro "
            "learn train)")
    try:
        fitted = learn_service.predictor_from_file(args.model)
        book = learn_service.PredictedServiceBook(
            fitted, confidence=args.confidence, host_mhz=args.host_mhz)
    except (OSError, ReproError) as exc:
        raise SystemExit(f"{args.command}: cannot use model {args.model}: {exc}")
    return book, policy


def _serve_config_from_args(args):
    """The :class:`ServeConfig` of the shared serve-spec flags.

    Used verbatim by ``serve`` and by ``chaos`` (which layers a fleet
    fault plan and the resilience machinery on top), so a chaos run
    under the empty plan prices exactly the run ``serve`` would.
    """
    from repro.faults.plan import FaultPlan
    from repro.serve.engine import ServeConfig, default_power_budget
    from repro.serve.scheduler import Policy, SchedulerConfig
    from repro.units import mw

    book, policy = _serve_book_and_policy(args)
    budget = mw(args.power_budget) if args.power_budget is not None else None
    if budget is None and policy is Policy.POWER_CAP:
        budget = default_power_budget(book, args.nodes)
    plans = None
    if args.faults == "on":
        plans = [getattr(FaultPlan, name)(*plan_args)
                 for name, plan_args in _SERVE_FAULT_PLANS]
    return ServeConfig(
        workload=_serve_workload(args),
        nodes=args.nodes,
        scheduler=SchedulerConfig(
            policy=policy, queue_capacity=args.queue_capacity,
            max_batch=args.max_batch, power_budget_w=budget,
            drop_late=args.drop_late),
        fault_plans=plans, seed=args.seed, book=book)


def _cmd_serve(args) -> str:
    from repro.serve.engine import ServeEngine

    config = _serve_config_from_args(args)
    if args.trace:
        from repro.obs import Telemetry, use_telemetry, write_chrome_trace

        hub = Telemetry(enabled=True)
        with use_telemetry(hub):
            report = ServeEngine(config).run()
        write_chrome_trace(hub, args.trace)
    else:
        report = ServeEngine(config).run()
    if report.miss_rate > args.miss_threshold:
        args._exit_code = SERVE_EXIT_MISSES
    if args.json:
        return report.to_json()
    return report.render()


# -- chaos campaigns ------------------------------------------------------------

def _chaos_plans(args):
    """The fleet plans a ``chaos`` invocation runs (None = pinned)."""
    from repro.faults.plan import FleetPlan

    if args.empty:
        return [FleetPlan.empty()]
    if not args.plan:
        return None
    try:
        with open(args.plan, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"chaos: cannot read --plan {args.plan}: {exc}")
    plans = payload if isinstance(payload, list) else [payload]
    if not plans:
        raise SystemExit(f"chaos: bad --plan {args.plan}: no plans")
    try:
        return [FleetPlan.from_dict(plan) for plan in plans]
    except ReproError as exc:
        raise SystemExit(f"chaos: bad --plan {args.plan}: {exc}")


def _cmd_chaos(args) -> str:
    import dataclasses

    from repro.serve.chaos import (
        pinned_campaign_config,
        pinned_campaign_plans,
        run_campaign,
    )
    from repro.serve.resilience import ResilienceConfig

    plans = _chaos_plans(args)
    if plans is None:
        for flag, dest, default in args.campaign_ignores:
            if getattr(args, dest) != default:
                raise SystemExit(
                    f"chaos: {flag} applies only with --plan or --empty")
        config = pinned_campaign_config(nodes=args.nodes, seed=args.seed)
        plans = pinned_campaign_plans()
        armed = args.resilience != "off"
    else:
        config = _serve_config_from_args(args)
        armed = args.resilience == "on" or (
            args.resilience == "auto"
            and any(plan.events for plan in plans))
    resilience = None
    if armed:
        resilience = config.resilience or ResilienceConfig()
        if args.slo_factor is not None:
            slo = dataclasses.replace(resilience.slo,
                                      latency_factor=args.slo_factor)
            resilience = dataclasses.replace(resilience, slo=slo)
    config = dataclasses.replace(config, resilience=resilience)
    result = run_campaign(config, plans, chaos_seed=args.chaos_seed,
                          collapse_threshold=args.collapse_threshold)
    if args.serve_json:
        with open(args.serve_json, "w", encoding="utf-8") as handle:
            handle.write(result.runs[0].report.to_json() + "\n")
    if args.alerts:
        with open(args.alerts, "w", encoding="utf-8") as handle:
            for run in result.runs:
                for alert in run.alerts:
                    handle.write(f"{run.scenario}: {alert.render()}\n")
    args._exit_code = result.exit_code
    if args.json:
        return result.to_json()
    return result.render()


# -- design-space exploration ---------------------------------------------------

def _parse_values(text: str, parse, what: str):
    """Comma-separated *text* through *parse*; *what* prefixes errors."""
    values = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            values.append(parse(token))
        except ValueError:
            raise SystemExit(f"{what}: bad value {token!r}")
    if not values:
        raise SystemExit(f"{what}: empty value list {text!r}")
    return values


def _parse_bool(token: str) -> bool:
    if token.lower() in ("true", "1", "yes"):
        return True
    if token.lower() in ("false", "0", "no"):
        return False
    raise ValueError(token)


#: dse inline options: (argparse dest, knob name, element parser).
_DSE_KNOB_OPTIONS = (
    ("kernel", "kernel", str),
    ("host_mhz", "host_mhz", float),
    ("budget_mw", "budget_mw", float),
    ("spi", "spi_mode", str),
    ("tying", "link_tying", str),
    ("untied_clock_mhz", "untied_clock_mhz", float),
    ("cluster", "cluster_size", int),
    ("iterations", "iterations", int),
    ("double_buffer", "double_buffered", _parse_bool),
)


def _dse_space(args):
    from repro.dse import ParameterSpace
    from repro.errors import ConfigurationError

    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                spec = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"dse: cannot load spec {args.spec}: {exc}")
    else:
        grid = {}
        for dest, knob, parse in _DSE_KNOB_OPTIONS:
            text = getattr(args, dest)
            if text is not None:
                grid[knob] = _parse_values(text, parse, "dse")
        if not grid:
            raise SystemExit("dse: give --spec or at least one knob option "
                             "(e.g. --host-mhz 2,4,8)")
        spec = {"grid": grid}
    try:
        return ParameterSpace.from_dict(spec)
    except ConfigurationError as exc:
        raise SystemExit(f"dse: invalid space: {exc}")


def _cmd_dse(args) -> str:
    from repro.dse import (
        ExplorationEngine,
        ResultCache,
        render,
        to_json_dict,
    )

    space = _dse_space(args)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    result = ExplorationEngine(cache=cache, jobs=args.jobs).run(space)
    if args.json:
        return _json_dump(to_json_dict(result))
    return render(result)


# -- benchmarks ------------------------------------------------------------------

def _cmd_bench(args) -> str:
    from repro.bench import (
        BenchOptions,
        BenchRunner,
        DEFAULT_REPEATS,
        QUICK_REPEATS,
        compare,
        latest_bench,
        load_report,
        next_index,
        render_comparison,
        render_report,
        write_report,
    )

    if args.compare:
        old_path, new_path = args.compare
        comparison = compare(load_report(old_path), load_report(new_path),
                             threshold=args.threshold)
        if not comparison.ok:
            args._exit_code = BENCH_EXIT_REGRESSION
        if args.json:
            return _json_dump(comparison.to_json_dict())
        return render_comparison(comparison, old_label=old_path,
                                 new_label=new_path)
    repeats = args.repeats if args.repeats is not None else (
        QUICK_REPEATS if args.quick else DEFAULT_REPEATS)
    suites = None
    if args.suites:
        suites = [name for name in
                  (token.strip() for token in args.suites.split(","))
                  if name]
    # Resolve the baseline before writing, so a fresh entry never
    # becomes its own baseline.
    baseline_path = args.baseline or latest_bench(args.out_dir)
    runner = BenchRunner(BenchOptions(
        repeats=repeats, quick=args.quick, suites=suites,
        profile_path=args.profile, flame_path=args.flame))
    doc = runner.run(index=next_index(args.out_dir))
    lines = [render_report(doc)]
    path = None
    if not args.no_write:
        path = write_report(doc, args.out_dir)
        lines.append(f"wrote {path}")
    lines.extend(f"wrote {artifact}" for artifact in runner.artifacts)
    comparison = None
    if args.check:
        if baseline_path is None:
            lines.append("check: no baseline BENCH_*.json in "
                         f"{args.out_dir} — nothing to gate against")
        else:
            comparison = compare(load_report(baseline_path), doc,
                                 threshold=args.threshold)
            lines.append("")
            lines.append(render_comparison(
                comparison, old_label=baseline_path,
                new_label=f"BENCH_{doc['bench_index']}"))
            if not comparison.ok:
                args._exit_code = BENCH_EXIT_REGRESSION
    if args.json:
        payload = {"report": doc, "path": path,
                   "artifacts": runner.artifacts}
        if args.check:
            payload["baseline"] = baseline_path
            payload["check"] = (comparison.to_json_dict()
                                if comparison is not None else None)
        return _json_dump(payload)
    return "\n".join(lines)


# -- learned configuration prediction --------------------------------------------

def _load_dataset(path):
    from repro.learn.dataset import load_dataset

    try:
        return load_dataset(path)
    except (OSError, ReproError) as exc:
        raise SystemExit(f"learn: cannot load dataset {path}: {exc}")


def _cmd_learn_dataset(args) -> str:
    from repro.dse import ResultCache
    from repro.learn.dataset import build_dataset, save_dataset

    programs = None
    if args.programs:
        programs = [name for name in
                    (token.strip() for token in args.programs.split(","))
                    if name]
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    dataset = build_dataset(programs=programs, tiny=args.tiny,
                            cache=cache, jobs=args.jobs)
    save_dataset(dataset, args.out)
    if args.json:
        return _json_dump({
            "out": args.out,
            "rows": len(dataset.rows),
            "labels": list(dataset.labels),
            "feature_names": len(dataset.feature_names),
            "digest": dataset.digest,
            "tiny": args.tiny,
        }, sort_keys=True)
    return (f"wrote {args.out}: {len(dataset.rows)} rows, "
            f"{len(dataset.labels)} classes, "
            f"{len(dataset.feature_names)} features "
            f"(digest {dataset.digest[:12]}...)")


def _cmd_learn_train(args) -> str:
    from repro.learn.models import save_model, train_model

    dataset = _load_dataset(args.dataset)
    fitted = train_model(dataset, kind=args.model)
    save_model(fitted, args.out)
    importances = sorted(fitted.importances().items(),
                         key=lambda kv: (-kv[1], kv[0]))[:5]
    if args.json:
        return _json_dump({
            "out": args.out,
            "kind": fitted.kind,
            "labels": list(fitted.labels),
            "dataset_digest": fitted.dataset_digest,
            "importances": dict(importances),
        }, sort_keys=True)
    lines = [f"wrote {args.out}: {fitted.kind} over "
             f"{len(dataset.rows)} rows, {len(fitted.labels)} classes"]
    for name, value in importances:
        if value > 0:
            lines.append(f"  {name:40s} {value:6.1%}")
    return "\n".join(lines)


def _cmd_learn_eval(args) -> str:
    from repro.learn.eval import DEFAULT_KINDS, evaluate

    dataset = _load_dataset(args.dataset)
    kinds = DEFAULT_KINDS
    if args.kinds:
        kinds = tuple(name for name in
                      (token.strip() for token in args.kinds.split(","))
                      if name)
    report = evaluate(dataset, kinds=kinds, topk=args.topk)
    primary = report.models[kinds[0]]
    regret = primary._mean("energy")
    if regret > args.max_regret:
        args._exit_code = LEARN_EXIT_REGRET
    if args.json:
        payload = report.to_dict()
        payload["max_regret"] = args.max_regret
        payload["primary"] = kinds[0]
        payload["primary_mean_energy_regret"] = regret
        return _json_dump(payload, sort_keys=True)
    lines = [report.render(), "",
             f"gate: {kinds[0]} mean energy regret {regret:.1%} "
             f"vs ceiling {args.max_regret:.1%} -> "
             + ("FAIL" if regret > args.max_regret else "ok")]
    return "\n".join(lines)


def _cmd_learn_predict(args) -> str:
    from repro.learn.dataset import corpus_features, label_knobs
    from repro.learn.models import load_model

    try:
        fitted = load_model(args.model)
    except (OSError, ReproError) as exc:
        raise SystemExit(f"learn: cannot load model {args.model}: {exc}")
    features = corpus_features(args.program, args.iterations)
    ranked = fitted.ranked(features)[:args.topk]
    if args.json:
        return _json_dump({
            "program": args.program,
            "iterations": args.iterations,
            "kind": fitted.kind,
            "ranked": [{"label": label, "confidence": confidence,
                        **label_knobs(label)}
                       for label, confidence in ranked],
        }, sort_keys=True)
    lines = [f"{args.program} x{args.iterations} ({fitted.kind}):"]
    for label, confidence in ranked:
        lines.append(f"  {label:14s} {confidence:6.1%}")
    return "\n".join(lines)


# -- capacity planning ---------------------------------------------------------

def _cmd_capacity_plan(args) -> str:
    from repro.capacity.composition import CompositionSpace
    from repro.capacity.planner import FleetPlanner
    from repro.capacity.report import plan_json_dict, render_plan
    from repro.units import mw

    budget = mw(args.power_budget) if args.power_budget is not None \
        else None
    space = CompositionSpace(
        min_nodes=args.min_nodes, max_nodes=args.max_nodes,
        max_per_archetype=args.max_per_archetype, power_budget_w=budget)
    planner = FleetPlanner(space, arrival_rate=args.arrival_rate,
                           requests=args.requests,
                           max_batch=args.max_batch,
                           headroom=args.headroom)
    result = planner.plan()
    if not args.no_verify:
        planner.verify_frontier(result, seed=args.verify_seed,
                                requests=args.verify_requests,
                                tolerance=args.tolerance)
        if not result.verified_ok:
            args._exit_code = CAPACITY_EXIT_TOLERANCE
    if args.json:
        return _json_dump(plan_json_dict(result), sort_keys=True)
    return render_plan(result, verbose=args.verbose)


def _cmd_capacity_validate(args) -> str:
    from repro.capacity.report import render_validation
    from repro.capacity.validation import TOLERANCE, run_validation

    tolerance = args.tolerance if args.tolerance is not None else TOLERANCE
    report = run_validation(tolerance=tolerance)
    if not report["passed"]:
        args._exit_code = CAPACITY_EXIT_TOLERANCE
    if args.json:
        return _json_dump(report, sort_keys=True)
    return render_validation(report)


def _parse_rates(spec: str):
    """``--rates``: ``lo:hi:step`` or comma-separated requests/s."""
    if ":" not in spec:
        return _parse_values(spec, float, "capacity --rates")
    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
        if step <= 0 or hi < lo:
            raise ValueError(spec)
    except ValueError:
        raise SystemExit(f"capacity: bad --rates {spec!r} (want lo:hi:step)")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + index * step for index in range(count)]


def _cmd_capacity_sweep(args) -> str:
    from repro.capacity.model import CapacityInputs, CapacityModel
    from repro.capacity.report import render_sweep
    from repro.serve import AnalyticServiceBook
    from repro.serve.engine import default_power_budget

    rates = _parse_rates(args.rates)
    book = AnalyticServiceBook()
    model = CapacityModel(book)
    budget = None
    if args.power_fraction is not None:
        budget = default_power_budget(book, args.nodes,
                                      args.power_fraction)
    points = []
    saturation = None
    started = time.perf_counter()
    for rate in rates:
        prediction = model.predict(CapacityInputs(
            arrival_rate=rate, requests=args.requests, nodes=args.nodes,
            max_batch=args.max_batch, power_budget_w=budget))
        row = prediction.to_json_dict()
        row["arrival_rate"] = rate
        points.append(row)
        if saturation is None and not prediction.stable:
            previous = rates[max(0, len(points) - 2)]
            saturation = [previous, rate]
    wall_ms = (time.perf_counter() - started) * 1e3
    payload = {
        "nodes": args.nodes,
        "max_batch": args.max_batch,
        "requests": args.requests,
        "power_fraction": args.power_fraction,
        "points": points,
        "saturation_rate": saturation,
    }
    if args.json:
        return _json_dump(payload, sort_keys=True)
    return render_sweep({**payload, "wall_ms": wall_ms})


# -- the parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser; each command carries its ``handler``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the DATE 2016 heterogeneous-accelerator "
                    "paper's evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, handler,
                subparsers=sub) -> argparse.ArgumentParser:
        sp = subparsers.add_parser(name, help=help_text)
        sp.set_defaults(handler=handler)
        return sp

    def experiment(name: str, help_text: str,
                   handler=_cmd_experiment) -> argparse.ArgumentParser:
        sp = command(name, help_text, handler)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable JSON instead of text")
        return sp

    experiment("table1", "Table I: benchmark summary")
    experiment("figure3", "Figure 3: GOPS vs power on matmul")
    experiment("figure4", "Figure 4: architectural/parallel speedup")
    experiment("figure5a", "Figure 5a: speedup within 10 mW")
    f5b = experiment("figure5b",
                     "Figure 5b: efficiency vs iterations/offload")
    f5b.add_argument("--kernel", choices=BENCHMARK_NAMES, default=None,
                     help="benchmark to sweep (default: cnn)")
    off = experiment("offload", "run one offload and report it",
                     _cmd_offload)
    off.add_argument("--kernel", choices=BENCHMARK_NAMES, default="matmul")
    off.add_argument("--host-mhz", type=float, default=8.0)
    off.add_argument("--iterations", type=int, default=1)
    off.add_argument("--double-buffer", action="store_true")
    trace = command(
        "trace", "offload under telemetry; export a Perfetto trace",
        _cmd_trace)
    trace.add_argument("kernel", nargs="?", choices=BENCHMARK_NAMES,
                       default="matmul", help="benchmark to trace")
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace-event JSON output path")
    trace.add_argument("--flame", default=None, metavar="PATH",
                       help="also write flamegraph collapsed stacks of the "
                            "kernel's machine-level counterpart")
    trace.add_argument("--ascii", action="store_true",
                       help="print ASCII span timelines too")
    trace.add_argument("--host-mhz", type=float, default=8.0)
    trace.add_argument("--iterations", type=int, default=4)
    trace.add_argument("--double-buffer", action="store_true")
    metrics = command(
        "metrics", "telemetry counters/lanes/phases of one offload",
        _cmd_metrics)
    metrics.add_argument("--kernel", choices=BENCHMARK_NAMES,
                         default="matmul")
    metrics.add_argument("--json", action="store_true",
                         help="machine-readable JSON instead of tables")
    metrics.add_argument("--host-mhz", type=float, default=8.0)
    metrics.add_argument("--iterations", type=int, default=4)
    metrics.add_argument("--double-buffer", action="store_true")
    lint = command(
        "lint", "static CFG/dataflow analysis of OR10N-mini assembly",
        _cmd_lint)
    lint.add_argument("files", nargs="*",
                      help="assembly source files to analyze")
    lint.add_argument("--all-builtin", action="store_true",
                      help="lint every built-in machine program")
    lint.add_argument("--format", choices=("pretty", "json", "sarif"),
                      default="pretty", help="output format")
    lint.add_argument("--entry-regs", default="",
                      help="comma-separated registers preset at entry, "
                           "e.g. r1,r2,r4")
    lint.add_argument("--cores", type=int, default=0,
                      help="also run the SPMD concurrency analysis "
                           "(OR011..OR014) with this many cores")
    lint.add_argument("--preset", action="append", default=[],
                      metavar="rN=BASE[@STEP]",
                      help="per-core entry value: core c gets BASE + "
                           "c*STEP (repeatable; needs --cores)")
    lint.add_argument("--dma-out", default=None, metavar="LO:HI",
                      help="byte region a DMA ships out after the "
                           "program ends (enables OR013; needs --cores)")
    lint.add_argument("--banks", type=int, default=8,
                      help="TCDM banks for the OR014 conflict model")
    lint.add_argument("--strict", action="store_true",
                      help="fail on warnings too, not only errors")
    faults = command(
        "faults", "seeded fault-injection campaign on the resilient "
                  "offload runtime", _cmd_faults)
    faults.add_argument("--scenarios", type=int, default=11,
                        help="number of seeded scenarios (cycles through "
                             "the fault taxonomy)")
    faults.add_argument("--seed", type=int, default=1,
                        help="campaign seed (same seed => identical matrix)")
    faults.add_argument("--kernel", choices=BENCHMARK_NAMES,
                        default="matmul")
    faults.add_argument("--host-mhz", type=float, default=8.0)
    faults.add_argument("--iterations", type=int, default=1)
    faults.add_argument("--ber", type=float, default=2e-5,
                        help="bit error rate of the bit-error scenarios")
    faults.add_argument("--no-fallback", action="store_true",
                        help="disable the OpenMP host fallback (exhausted "
                             "ladders then count as failed)")
    faults.add_argument("--trace", default=None, metavar="PATH",
                        help="also write a Chrome trace of the campaign")
    faults.add_argument("--json", action="store_true",
                        help="machine-readable JSON instead of the matrix")
    dse = command(
        "dse", "design-space exploration: parallel, cached sweeps "
               "with Pareto analysis", _cmd_dse)
    dse.add_argument("--spec", default=None, metavar="PATH",
                     help="JSON parameter-space spec "
                          '({"grid": {...}, "points": [...]})')
    dse.add_argument("--kernel", default=None,
                     help="comma-separated kernel names")
    dse.add_argument("--host-mhz", default=None,
                     help="comma-separated host frequencies (MHz)")
    dse.add_argument("--budget-mw", default=None,
                     help="comma-separated power budgets (mW)")
    dse.add_argument("--spi", default=None,
                     help="comma-separated link widths: single,quad")
    dse.add_argument("--tying", default=None,
                     help="comma-separated link tying: tied,untied")
    dse.add_argument("--untied-clock-mhz", default=None,
                     help="comma-separated untied SPI clocks (MHz)")
    dse.add_argument("--cluster", default=None,
                     help="comma-separated cluster sizes")
    dse.add_argument("--iterations", default=None,
                     help="comma-separated iterations-per-offload values")
    dse.add_argument("--double-buffer", default=None,
                     help="comma-separated schedules: false,true")
    dse.add_argument("--jobs", type=int, default=1,
                     help="worker processes (1 = in-process, deterministic "
                          "fallback)")
    dse.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persistent result cache directory")
    dse.add_argument("--json", action="store_true",
                     help="machine-readable JSON instead of tables")

    def serve_spec(sp: argparse.ArgumentParser) -> List[argparse.Action]:
        # The shared serving-run specification: `serve` runs it as-is,
        # `chaos` layers fleet fault plans and resilience on top.
        # Returns the actions it adds.
        first = len(sp._actions)
        sp.add_argument("--nodes", type=int, default=4,
                        help="accelerator nodes in the fleet")
        sp.add_argument("--policy",
                        choices=("fifo", "sjf", "edf", "power-cap"),
                        default="fifo", help="dispatch policy")
        sp.add_argument("--workload", choices=("poisson", "mmpp", "closed"),
                        default="poisson", help="request-stream generator")
        sp.add_argument("--arrival-rate", type=float, default=250.0,
                        help="open-loop arrival rate (requests/s)")
        sp.add_argument("--requests", type=int, default=600,
                        help="request-count bound (0 = duration-bound only)")
        sp.add_argument("--duration", type=float, default=None,
                        help="arrival-window bound in simulated seconds")
        sp.add_argument("--burst", type=float, default=4.0,
                        help="mmpp burst-state rate multiplier")
        sp.add_argument("--clients", type=int, default=8,
                        help="closed-loop client count")
        sp.add_argument("--think-ms", type=float, default=10.0,
                        help="closed-loop mean think time (ms)")
        sp.add_argument("--iterations", type=int, default=1,
                        help="kernel iterations per request")
        sp.add_argument("--deadline-factor", type=float, default=25.0,
                        help="deadline = arrival + factor x expected "
                             "service (0 disables deadlines)")
        sp.add_argument("--max-batch", type=int, default=8,
                        help="same-kernel requests coalesced per dispatch")
        sp.add_argument("--queue-capacity", type=int, default=0,
                        help="admission-control queue bound (0 = unbounded)")
        sp.add_argument("--drop-late", action="store_true",
                        help="drop requests already past their deadline at "
                             "dispatch time")
        sp.add_argument("--power-budget", type=float, default=None,
                        metavar="MW", help="fleet power budget in mW "
                        "(power-cap default: sized from the fleet)")
        sp.add_argument("--faults", choices=("on", "off"), default="off",
                        help="cycle canned per-node fault plans across "
                             "the fleet")
        sp.add_argument("--seed", type=int, default=1,
                        help="run seed (same seed => identical report)")
        sp.add_argument("--host-mhz", type=float, default=8.0)
        sp.add_argument("--scheduler", default=None, metavar="NAME",
                        help="extension dispatch policy registered by name "
                             "(e.g. 'predicted'; overrides --policy and "
                             "needs --model)")
        sp.add_argument("--model", default=None, metavar="PATH",
                        help="trained repro.learn model JSON: price the "
                             "fast tier at the predicted operating points")
        sp.add_argument("--confidence", type=float, default=0.5,
                        help="minimum model confidence before trusting a "
                             "prediction over the analytic point")
        sp.add_argument("--replay", default=None, metavar="PATH",
                        help="replay a JSON request trace instead of a "
                             "generator")
        return sp._actions[first:]

    serve = command(
        "serve", "multi-accelerator serving simulation: workload -> "
                 "scheduler -> node fleet", _cmd_serve)
    serve_spec(serve)
    serve.add_argument("--miss-threshold", type=float, default=0.05,
                       help="miss-rate ceiling before exiting "
                            f"{SERVE_EXIT_MISSES}")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="also write a Chrome trace of the run")
    serve.add_argument("--json", action="store_true",
                       help="machine-readable JSON instead of the summary")
    chaos = command(
        "chaos", "fleet fault campaigns over the serving runtime: "
                 "crash storms, brownouts, flapping, surges -> "
                 "resilience scorecard", _cmd_chaos)
    # The pinned campaign reads only --nodes and --seed of the spec;
    # _cmd_chaos refuses any other spec flag set away from its default.
    chaos.set_defaults(campaign_ignores=tuple(
        (action.option_strings[0], action.dest, action.default)
        for action in serve_spec(chaos)
        if action.dest not in ("nodes", "seed")))
    chaos.add_argument("--plan", default=None, metavar="PATH",
                       help="JSON fleet plan (object or list of objects) "
                            "instead of the pinned campaign")
    chaos.add_argument("--empty", action="store_true",
                       help="run the empty plan only: bit-identical to a "
                            "plain `serve` of the same spec")
    chaos.add_argument("--chaos-seed", type=int, default=1,
                       help="seed of the fleet-plan expansion (independent "
                            "of the serve --seed)")
    chaos.add_argument("--resilience", choices=("auto", "on", "off"),
                       default="auto",
                       help="arm breakers/hedging/overload/SLO machinery "
                            "(auto: only when the plan has events)")
    chaos.add_argument("--collapse-threshold", type=float, default=0.5,
                       help="availability floor under which a scenario "
                            "counts as fleet collapse")
    chaos.add_argument("--slo-factor", type=float, default=None,
                       help="override the latency SLO factor "
                            "(target = factor x expected service)")
    chaos.add_argument("--serve-json", default=None, metavar="PATH",
                       help="write the first scenario's full serve report "
                            "JSON to PATH")
    chaos.add_argument("--alerts", default=None, metavar="PATH",
                       help="write the alerts.log-style event stream to "
                            "PATH")
    chaos.add_argument("--json", action="store_true",
                       help="machine-readable campaign JSON instead of "
                            "the scorecard table")
    bench = command(
        "bench", "tracked performance benchmarks: write the next "
                 "BENCH_<n>.json, gate on regressions", _cmd_bench)
    bench.add_argument("--quick", action="store_true",
                       help="median-of-3 instead of median-of-5 (same "
                            "pinned workloads, so results stay comparable)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="explicit timed repeats per suite")
    bench.add_argument("--suites", default=None,
                       help="comma-separated suite subset (default: all; "
                            "sim,serve,dse_cold,dse_cached,faults,analysis,"
                            "learn,chaos,capacity)")
    bench.add_argument("--out-dir", default="benchmarks/results",
                       metavar="DIR",
                       help="trajectory directory for BENCH_<n>.json")
    bench.add_argument("--no-write", action="store_true",
                       help="run and report without writing a trajectory "
                            "entry")
    bench.add_argument("--check", action="store_true",
                       help="compare against the latest committed entry "
                            f"(or --baseline); exit {BENCH_EXIT_REGRESSION} "
                            "on regression")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="explicit baseline file for --check")
    bench.add_argument("--threshold", type=float, default=0.20,
                       help="median-throughput loss treated as a "
                            "regression (default 0.20)")
    bench.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                       default=None,
                       help="judge two existing BENCH files; no run")
    bench.add_argument("--profile", default=None, metavar="PATH",
                       help="write per-suite Chrome traces of the "
                            "instrumented pass (PATH gets the suite name "
                            "inserted)")
    bench.add_argument("--flame", default=None, metavar="PATH",
                       help="write a collapsed-stack flamegraph of the "
                            "per-phase totals")
    bench.add_argument("--json", action="store_true",
                       help="machine-readable JSON instead of tables")

    learn = sub.add_parser(
        "learn", help="learned configuration prediction: labeled "
                      "datasets, seeded models, regret vs the DSE oracle")
    learn_sub = learn.add_subparsers(dest="learn_command", required=True)
    dataset = command(
        "dataset", "sweep the corpus through the DSE engine and "
                   "write the labeled dataset", _cmd_learn_dataset,
        learn_sub)
    dataset.add_argument("--out", default="learn_dataset.json",
                         metavar="PATH", help="dataset output path")
    dataset.add_argument("--tiny", action="store_true",
                         help="reduced candidate grid (CI smoke scale)")
    dataset.add_argument("--programs", default=None,
                         help="comma-separated corpus subset "
                              "(default: the whole corpus)")
    dataset.add_argument("--jobs", type=int, default=1,
                         help="DSE worker processes")
    dataset.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="persistent DSE result cache directory")
    dataset.add_argument("--json", action="store_true",
                         help="machine-readable JSON summary")
    train = command(
        "train", "fit one model on a dataset and write its JSON",
        _cmd_learn_train, learn_sub)
    train.add_argument("--dataset", required=True, metavar="PATH")
    train.add_argument("--out", default="learn_model.json", metavar="PATH",
                       help="model output path")
    train.add_argument("--model", choices=("tree", "ridge", "dummy"),
                       default="tree", help="model kind")
    train.add_argument("--json", action="store_true",
                       help="machine-readable JSON summary")
    evaluate = command(
        "eval", "leave-one-kernel-out regret report vs the oracle",
        _cmd_learn_eval, learn_sub)
    evaluate.add_argument("--dataset", required=True, metavar="PATH")
    evaluate.add_argument("--topk", type=int, default=3,
                          help="top-k window for the accuracy columns")
    evaluate.add_argument("--kinds", default=None,
                          help="comma-separated model kinds (first one "
                               "is the gated primary; default "
                               "tree,ridge,dummy)")
    evaluate.add_argument("--max-regret", type=float, default=0.15,
                          help="mean-energy-regret ceiling before "
                               f"exiting {LEARN_EXIT_REGRET}")
    evaluate.add_argument("--json", action="store_true",
                          help="machine-readable JSON report")
    predict = command(
        "predict", "rank candidate configurations for one corpus "
                   "program + iteration context", _cmd_learn_predict,
        learn_sub)
    predict.add_argument("--model", required=True, metavar="PATH")
    predict.add_argument("--program", required=True,
                         help="corpus program name (see repro.learn.CORPUS)")
    predict.add_argument("--iterations", type=int, default=1,
                         help="offload iteration context")
    predict.add_argument("--topk", type=int, default=3,
                         help="ranked labels to show")
    predict.add_argument("--json", action="store_true",
                         help="machine-readable JSON ranking")

    capacity = sub.add_parser(
        "capacity", help="analytic capacity model: fleet-composition "
                         "planning, DES cross-validation, rate sweeps")
    capacity_sub = capacity.add_subparsers(dest="capacity_command",
                                           required=True)
    plan = command(
        "plan", "search archetype compositions under a power "
                "budget; Pareto frontier, DES-verified",
        _cmd_capacity_plan, capacity_sub)
    plan.add_argument("--arrival-rate", type=float, default=300.0,
                      help="workload arrival rate (requests/s)")
    plan.add_argument("--power-budget", type=float, default=None,
                      metavar="MW", help="fleet provisioned-power budget "
                                         "in milliwatts (default: "
                                         "unbounded)")
    plan.add_argument("--min-nodes", type=int, default=1)
    plan.add_argument("--max-nodes", type=int, default=6,
                      help="total fleet size ceiling")
    plan.add_argument("--max-per-archetype", type=int, default=4)
    plan.add_argument("--requests", type=int, default=2000,
                      help="run length the analytic model prices")
    plan.add_argument("--max-batch", type=int, default=8)
    plan.add_argument("--headroom", type=float, default=0.85,
                      help="per-class utilization ceiling for "
                           "feasibility")
    plan.add_argument("--no-verify", action="store_true",
                      help="skip the DES re-verification of the frontier")
    plan.add_argument("--verify-requests", type=int, default=600,
                      help="request count of the verification DES runs")
    plan.add_argument("--verify-seed", type=int, default=7)
    plan.add_argument("--tolerance", type=float, default=0.15,
                      help="verification error bound before exiting "
                           f"{CAPACITY_EXIT_TOLERANCE}")
    plan.add_argument("--verbose", action="store_true",
                      help="histogram the infeasibility reasons")
    plan.add_argument("--json", action="store_true",
                      help="deterministic machine-readable payload")
    validate = command(
        "validate", "pinned analytic-vs-DES grid; the CI "
                    "calibration gate", _cmd_capacity_validate,
        capacity_sub)
    validate.add_argument("--tolerance", type=float, default=None,
                          help="gated relative-error bound (default: "
                               "the pinned 10%%); breach exits "
                               f"{CAPACITY_EXIT_TOLERANCE}")
    validate.add_argument("--json", action="store_true",
                          help="machine-readable JSON report")
    sweep = command(
        "sweep", "analytic arrival-rate sweep of a homogeneous "
                 "fleet (no DES)", _cmd_capacity_sweep, capacity_sub)
    sweep.add_argument("--rates", default="50:700:50",
                       help="lo:hi:step or comma-separated rates "
                            "(requests/s)")
    sweep.add_argument("--nodes", type=int, default=4)
    sweep.add_argument("--requests", type=int, default=2000)
    sweep.add_argument("--max-batch", type=int, default=8)
    sweep.add_argument("--power-fraction", type=float, default=None,
                       help="power-cap the fleet at "
                            "default_power_budget(book, nodes, FRACTION)")
    sweep.add_argument("--json", action="store_true",
                       help="deterministic machine-readable payload")

    command("all", "everything, in paper order", _cmd_experiment)
    command("report", "markdown reproduction report with anchor checks",
            _cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        print(args.handler(args))
    except ReproError as exc:
        # The one error boundary: a modelled failure is a one-line
        # message and exit 1, never a traceback.
        raise SystemExit(f"{args.command}: {exc}")
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
    return getattr(args, "_exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
