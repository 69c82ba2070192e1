"""The program's layer seams and the per-layer metrics read from them.

:data:`SEAMS` names, per layer, the public callables the traced run
wraps; :func:`install` patches them into a :class:`~tracer.Tracer` and
:func:`layer_metrics` folds the recorded spans and counters into the
per-layer metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

from tracer import SpanName, Tracer


def _omp_key(omp, program) -> Tuple:
    return (program.name, omp.threads, omp.schedule.value,
            type(omp.target).__name__)


def _envelope_key(solver, host_frequency, activity) -> Tuple:
    return (solver.budget, solver.link_reserve, host_frequency,
            repr(activity))


def _frame_bytes(tracer: Tracer, args, result, index: int) -> None:
    tracer.counts["link.frames.bytes"] += len(result)


def _batch_size(tracer: Tracer, args, result, index: int) -> None:
    batch, _late = result
    if batch:
        tracer.samples["serve.scheduler.batch"].append(len(batch))


def _config_record(tracer: Tracer, args, result, index: int) -> None:
    tracer.samples["dse.config"].append((index, bool(result["feasible"])))


def _process_layer(process) -> str:
    """Serve processes belong to the engine; fleet nodes to the fleet."""
    return "serve.engine" if process.name.startswith("serve.") \
        else "serve.fleet"


@dataclass(frozen=True)
class Seam:
    """Callables of one module wrapped under one span and counter name."""

    module: str
    owner: Optional[str]            #: class name; None for functions
    attrs: Tuple[str, ...]
    name: Optional[SpanName]        #: None counts calls without a span
    counter: str = ""               #: defaults to the span name
    key: Optional[Callable] = None  #: repeat key of a call
    observe: Optional[Callable] = None


_RESILIENCE = {
    "CircuitBreaker": ("allows", "note_dispatch", "record_failure",
                       "record_success"),
    "RetryBudget": ("allowance", "allow"),
    "HealthMonitor": ("observe", "usable"),
    "OverloadController": ("observe", "note_deferral"),
    "SloTracker": ("record_completion", "record_drop", "latency_burn",
                   "availability_burn", "worst_burn", "summary"),
}

SEAMS: Tuple[Seam, ...] = (
    Seam("repro.kernels.base", "Kernel", ("build_program",), "kernels.build"),
    Seam("repro.kernels.base", "Kernel",
         ("generate_inputs", "compute", "serialize_inputs",
          "serialize_outputs"), "kernels.reference"),
    Seam("repro.isa.target", "Target", ("lower", "lower_nodes"), "isa.lower"),
    Seam("repro.mcu.device", "McuDevice", ("lower",), "isa.lower"),
    Seam("repro.runtime.omp", "DeviceOpenMp", ("execute",), "runtime.omp",
         key=_omp_key),
    Seam("repro.runtime.host", "TargetRegion", ("to_frames",),
         "runtime.frames"),
    Seam("repro.pulp.binary", "KernelBinary", ("from_program", "to_bytes"),
         "pulp.binary"),
    Seam("repro.pulp.soc", "PulpSoc", ("handle_frame",), "pulp.soc"),
    Seam("repro.link.protocol", None, ("encode_frame",), "link.frames",
         observe=_frame_bytes),
    Seam("repro.link.protocol", None, ("decode_frames",), "link.frames"),
    Seam("repro.power.pulp_model", "PulpPowerModel",
         ("max_frequency_within", "power_at_frequency", "total_power"),
         "power.model"),
    Seam("repro.core.envelope", "PowerEnvelopeSolver", ("solve",),
         "core.envelope", key=_envelope_key),
    Seam("repro.core.offload", "OffloadCostModel", ("offload_timing",),
         "core.offload_cost"),
    Seam("repro.core.system", "HeterogeneousSystem",
         ("offload", "run_on_host"), "core.system"),
    Seam("repro.dse.evaluate", None, ("evaluate_config",), "dse.evaluate",
         observe=_config_record),
    Seam("repro.dse.pareto", None,
         ("pareto_frontier", "sensitivity", "to_json_dict"), "dse.report"),
    Seam("repro.experiments.table1", None, ("run", "render"),
         "experiments.table1"),
    Seam("repro.experiments.figure3", None, ("run", "render"),
         "experiments.figure3"),
    Seam("repro.experiments.figure4", None, ("run", "render"),
         "experiments.figure4"),
    Seam("repro.experiments.figure5", None,
         ("run_figure5a", "render_figure5a"), "experiments.figure5a"),
    Seam("repro.experiments.figure5", None,
         ("run_figure5b", "render_figure5b"), "experiments.figure5b"),
    # The anchor checks are the report module's own (private) functions.
    Seam("repro.experiments.report", None,
         ("_check_table1", "_check_figure3", "_check_figure4",
          "_check_figure5a", "_check_figure5b"), "experiments.anchors"),
    Seam("repro.sim.engine", "Simulator", ("run",), "sim.loop"),
    Seam("repro.sim.engine", "Simulator", ("schedule",), None, "sim.events"),
    Seam("repro.sim.engine", "Simulator", ("cancel",), None, "sim.cancels"),
    Seam("repro.sim.engine", "Process", ("interrupt",), None,
         "sim.interrupts"),
    # Resumes and interrupt deliveries both advance a process through
    # ``_step``; its time goes to the layer that owns the process, which
    # leaves ``sim.loop`` as the bare event-heap loop.
    Seam("repro.sim.engine", "Process", ("_step",), _process_layer,
         "sim.steps"),
    Seam("repro.serve.workload", "Workload", ("arrivals",), "serve.workload"),
    Seam("repro.serve.engine", "ServeEngine", ("run",), "serve.engine"),
    Seam("repro.serve.fleet", "Node", ("assign",), "serve.fleet",
         "serve.fleet.assign"),
    Seam("repro.serve.fleet", "PowerTracker", ("set_draw",), None,
         "serve.power.set_draw"),
    Seam("repro.serve.scheduler", "Scheduler",
         ("submit", "requeue", "shed", "power_allows", "tier_for"),
         "serve.scheduler"),
    Seam("repro.serve.scheduler", "Scheduler", ("take_batch",),
         "serve.scheduler", observe=_batch_size),
    Seam("repro.serve.fleet", "AnalyticServiceBook", ("profile",), None,
         "serve.book"),
    # A profile miss prices the kernel through the offload stack.
    Seam("repro.serve.fleet", "AnalyticServiceBook", ("_build",),
         "serve.book", "serve.book.build"),
    *(Seam("repro.serve.resilience", owner, attrs, "serve.resilience")
      for owner, attrs in _RESILIENCE.items()),
    Seam("repro.serve.metrics", "ServeReport",
         ("metrics", "to_json_dict", "to_json"), "serve.report"),
    Seam("repro.serve.chaos", None, ("build_scorecard",), "serve.report"),
)

#: Modules whose subclasses of a seam class must exist before patching.
SUBCLASS_MODULES = ("repro.kernels", "repro.isa.baseline", "repro.isa.cortexm",
                    "repro.isa.or10n", "repro.mcu.stm32l476",
                    "repro.serve.workload")


def install(tracer: Tracer) -> List[str]:
    """Patch every seam into *tracer*; returns the seams that matched nothing.

    A seam the program no longer has is skipped rather than fatal, so a
    refactor that renames an entry point is still measured: that layer
    reads zero and ``trace.coverage`` shows the gap.
    """
    for module in SUBCLASS_MODULES:
        with contextlib.suppress(ImportError):
            import_module(module)
    missing: List[str] = []
    for seam in SEAMS:
        hooks = {"key": seam.key, "observe": seam.observe}
        counter = seam.counter or seam.name
        for attr in seam.attrs:
            where = ".".join(filter(None, (seam.module, seam.owner, attr)))
            try:
                holder = import_module(seam.module)
                if seam.owner is not None:
                    holder = getattr(holder, seam.owner)
                target = getattr(holder, attr)
            except (ImportError, AttributeError):
                missing.append(where)
                continue
            if seam.owner is None:
                count = tracer.patch_function(target, seam.name, counter,
                                              **hooks)
            else:
                count = tracer.patch_method(holder, attr, seam.name, counter,
                                            **hooks)
            if count == 0:
                missing.append(where)
    return missing


#: Every per-layer metric: name -> unit.  ``ratio`` is a unitless share.
PER_LAYER: Dict[str, str] = {
    "setup.import_s": "s", "setup.inputs_s": "s",
    "kernels.build.calls": "count", "kernels.build.self_s": "s",
    "kernels.reference.calls": "count", "kernels.reference.self_s": "s",
    "isa.lower.calls": "count", "isa.lower.self_s": "s",
    "runtime.omp.calls": "count", "runtime.omp.self_s": "s",
    "runtime.omp.repeat_share": "ratio", "runtime.frames.self_s": "s",
    "pulp.binary.calls": "count", "pulp.binary.self_s": "s",
    "pulp.soc.self_s": "s",
    "link.frames.calls": "count", "link.frames.self_s": "s",
    "link.frames.bytes": "bytes",
    "power.model.calls": "count", "power.model.self_s": "s",
    "core.envelope.calls": "count", "core.envelope.self_s": "s",
    "core.envelope.repeat_share": "ratio",
    "core.offload_cost.calls": "count", "core.offload_cost.self_s": "s",
    "core.system.calls": "count", "core.system.self_s": "s",
    "dse.evaluate.calls": "count", "dse.evaluate.self_s": "s",
    "dse.report.self_s": "s", "dse.useful_ratio": "ratio",
    "dse.infeasible_s": "s", "dse.config_p50_ms": "ms",
    "dse.config_tail_ms": "ms", "dse.config_tail_pct": "%",
    "dse.config_samples": "count",
    "experiments.table1.self_s": "s", "experiments.figure3.self_s": "s",
    "experiments.figure4.self_s": "s", "experiments.figure5a.self_s": "s",
    "experiments.figure5b.self_s": "s", "experiments.anchors.self_s": "s",
    "sim.loop.self_s": "s", "sim.events": "count",
    "sim.events_per_request": "count", "sim.us_per_event": "us",
    "sim.cancels": "count", "sim.interrupts": "count",
    "serve.workload.self_s": "s", "serve.engine.self_s": "s",
    "serve.fleet.self_s": "s", "serve.fleet.assign.calls": "count",
    "serve.power.set_draw.calls": "count",
    "serve.scheduler.calls": "count", "serve.scheduler.self_s": "s",
    "serve.scheduler.batch_mean": "count",
    "serve.book.calls": "count", "serve.book.miss_ratio": "ratio",
    "serve.book.build_s": "s",
    "serve.resilience.calls": "count", "serve.resilience.self_s": "s",
    "serve.retry_amplification": "ratio", "serve.hedge_waste_ratio": "ratio",
    "serve.report.self_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
    "trace.spans": "count",
    "error_rate": "ratio", "anchors_missed": "count",
}

#: Layers whose calls and self time are reported as ``<layer>.calls`` /
#: ``<layer>.self_s`` where PER_LAYER lists them.
_SPAN_LAYERS = ("kernels.build", "kernels.reference", "isa.lower",
                "runtime.omp", "runtime.frames", "pulp.binary", "pulp.soc",
                "link.frames", "power.model", "core.envelope",
                "core.offload_cost", "core.system", "dse.evaluate",
                "dse.report", "experiments.table1", "experiments.figure3",
                "experiments.figure4", "experiments.figure5a",
                "experiments.figure5b", "experiments.anchors", "sim.loop",
                "serve.workload", "serve.engine", "serve.fleet",
                "serve.scheduler", "serve.resilience", "serve.report")


def tail_percentile(samples: int) -> float:
    """Highest of p50/p90/p95/p99/p99.9 with >= 10 samples beyond it."""
    best = 0.0
    for pct in (50.0, 90.0, 95.0, 99.0, 99.9):
        if samples * (100.0 - pct) / 100.0 >= 10 - 1e-9:
            best = pct
    return best


def nearest_rank(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, root: int, stats: Dict[str, float],
                  baseline_wall: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run (setup and error rate aside).

    *root* is the workload's root span, *stats* the workload's simulated
    statistics and *baseline_wall* the untraced median wall of the same
    timed call.
    """
    own = tracer.self_times()
    counts = tracer.counts
    metrics: Dict[str, float] = {}
    for layer in _SPAN_LAYERS:
        for suffix, value in ((".calls", counts[layer]),
                              (".self_s", own.get(layer, 0.0))):
            if layer + suffix in PER_LAYER:
                metrics[layer + suffix] = float(value)
    for layer in ("runtime.omp", "core.envelope"):
        metrics[f"{layer}.repeat_share"] = _ratio(tracer.repeats[layer],
                                                  counts[layer])
    metrics["link.frames.bytes"] = float(counts["link.frames.bytes"])

    configs = tracer.samples["dse.config"]
    walls = sorted(tracer.duration(index) for index, _ in configs)
    tail = tail_percentile(len(walls))
    metrics.update({
        "dse.useful_ratio": _ratio(sum(ok for _, ok in configs), len(configs)),
        "dse.infeasible_s": sum(tracer.duration(index)
                                for index, ok in configs if not ok),
        "dse.config_p50_ms": nearest_rank(walls, 50.0) * 1e3 if walls else 0.0,
        "dse.config_tail_ms": (nearest_rank(walls, tail) * 1e3
                               if walls and tail else 0.0),
        "dse.config_tail_pct": tail if walls else 0.0,
        "dse.config_samples": float(len(walls)),
    })

    events = counts["sim.events"]
    batches = tracer.samples["serve.scheduler.batch"]
    metrics.update({
        "sim.events": float(events),
        "sim.events_per_request": _ratio(events, stats.get("requests", 0.0)),
        "sim.us_per_event": _ratio(baseline_wall * 1e6, events),
        "sim.cancels": float(counts["sim.cancels"]),
        "sim.interrupts": float(counts["sim.interrupts"]),
        "serve.fleet.assign.calls": float(counts["serve.fleet.assign"]),
        "serve.power.set_draw.calls": float(counts["serve.power.set_draw"]),
        "serve.scheduler.batch_mean": (statistics.fmean(batches)
                                       if batches else 0.0),
        "serve.book.calls": float(counts["serve.book"]),
        "serve.book.miss_ratio": _ratio(counts["serve.book.build"],
                                        counts["serve.book"]),
        "serve.book.build_s": tracer.outer_total("serve.book"),
        "serve.retry_amplification": stats.get("retry_amplification", 0.0),
        "serve.hedge_waste_ratio": stats.get("hedge_waste_ratio", 0.0),
        "anchors_missed": stats.get("anchors_missed", 0.0),
    })

    root_wall = tracer.duration(root)
    metrics.update({
        "trace.coverage": 1.0 - own.get(tracer.names[root], 0.0) / root_wall,
        "trace.overhead": _ratio(root_wall, baseline_wall),
        "trace.spans": float(len(tracer.names)),
    })
    return metrics
