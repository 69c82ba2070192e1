"""The benchmark's four pinned, user-facing workloads.

A workload is split the way a user's invocation is:

* ``modules`` -- the program modules the invocation imports;
* ``inputs(seed)`` -- what the program receives, built from the seed;
* ``run(inputs)`` -- the timed call, ending in the output a user reads;
* ``check(inputs, output)`` -- an :class:`Outcome`: work units done,
  a fingerprint of every simulated statistic, and violated invariants.

The program is a deterministic simulator, so host time is the measured
performance and every simulated statistic (DSE records, serve latencies,
chaos scorecards, paper figures) is a correctness output.  Fingerprints
are pinned in ``pins.json`` at :data:`DEFAULT_SEED`; on any other seed
the invariants and cross-run equality are checked instead.

Program functions are called through their modules (``dse.to_json_dict``
rather than an imported name) so the traced run's wrappers, which are
patched into module namespaces, see every call.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple

#: The seed whose fingerprints are pinned in ``pins.json``.
DEFAULT_SEED = 1

#: The Table-I kernels, pinned here so the grid cannot drift with the
#: program's registry.
KERNELS = ("matmul", "matmul (short)", "matmul (fixed)", "strassen",
           "svm (linear)", "svm (poly)", "svm (RBF)", "cnn",
           "cnn (approx)", "hog")

#: Every kernel x cluster size x host MHz x budget x SPI width (16 MHz
#: at 5 mW leaves the accelerator no budget: those points come back
#: infeasible), plus per-kernel points that vary iterations, schedule
#: and the untied link.  200 configurations; each kernel's
#: characterization is shared by its 20 configurations.
DSE_SPEC: Dict[str, Any] = {
    "grid": {
        "kernel": list(KERNELS),
        "cluster_size": [2, 4],
        "host_mhz": [8.0, 16.0],
        "budget_mw": [5.0, 10.0],
        "spi_mode": ["single", "quad"],
    },
    "points": [
        point
        for kernel in KERNELS
        for point in (
            {"kernel": kernel, "iterations": 16, "double_buffered": True},
            {"kernel": kernel, "iterations": 16, "double_buffered": False},
            {"kernel": kernel, "link_tying": "untied",
             "untied_clock_mhz": 24.0},
            {"kernel": kernel, "link_tying": "untied",
             "untied_clock_mhz": 48.0, "iterations": 16,
             "double_buffered": True},
        )
    ],
}

#: Plain serving at about 0.8 fleet utilization: 500 req/s on 4 nodes.
SERVE_SPEC: Dict[str, Any] = {"rate": 500.0, "requests": 20000, "nodes": 4,
                              "max_batch": 8, "deadline_factor": 25.0}

#: Chaos campaign seeds per run: seeds ``seed .. seed + CHAOS_SEEDS - 1``.
CHAOS_SEEDS = 16


def digest(payload: Any) -> str:
    """Short stable digest of a JSON-serializable payload or a string."""
    text = payload if isinstance(payload, str) else json.dumps(
        payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Outcome:
    """What one timed call produced, reduced for checking."""

    units: float                        #: work units done (throughput)
    fingerprint: Dict[str, Any]         #: pinned simulated statistics
    violations: List[str] = field(default_factory=list)
    #: Simulated statistics the per-layer trace reports.
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """One pinned workload (see the module docstring)."""

    name: str
    unit: str                   #: what one unit of throughput is
    seeded: bool                #: whether --seed changes the inputs
    modules: Tuple[str, ...]
    inputs: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], Outcome]

    def load(self) -> Dict[str, Any]:
        """Import the program modules the invocation uses."""
        return {name: import_module(name) for name in self.modules}


# -- dse_sweep ----------------------------------------------------------------


def _dse_inputs(seed: int):
    return import_module("repro.dse").ParameterSpace.from_dict(DSE_SPEC)


def _dse_run(space):
    dse = import_module("repro.dse")
    result = dse.ExplorationEngine(cache=None, jobs=1).run(space)
    return result, dse.to_json_dict(result)


def _dse_check(space, output) -> Outcome:
    result, report = output
    records = result.records
    feasible = sum(1 for record in records if record["feasible"])
    # The exploration's own wall clock is the one non-simulated field.
    stats = {k: v for k, v in report["stats"].items() if k != "elapsed_s"}
    report = dict(report, stats=stats)
    violations = []
    expected = len(space.expand())
    if len(records) != expected:
        violations.append(f"{len(records)} records for {expected} configs")
    unexpected = [record["error"] for record in records
                  if not record["feasible"]
                  and not str(record["error"]).startswith("OffloadError")]
    if unexpected:
        violations.append(f"non-envelope failures: {unexpected[:3]}")
    return Outcome(
        units=float(len(records)),
        fingerprint={"configurations": len(records),
                     "infeasible": len(records) - feasible,
                     "records_digest": digest(records),
                     "report_digest": digest(report)},
        violations=violations,
        stats={"configs": float(len(records)), "feasible": float(feasible)})


# -- serve_drain --------------------------------------------------------------


def _serve_inputs(seed: int):
    serve = import_module("repro.serve")
    engine = import_module("repro.serve.engine")
    scheduler = import_module("repro.serve.scheduler")
    nodes = SERVE_SPEC["nodes"]
    # The budget lets every node run hot, so the gate never defers; it
    # is priced on a throwaway book so the run's own book starts empty.
    budget = engine.default_power_budget(serve.AnalyticServiceBook(), nodes,
                                         active_fraction=1.0)
    return engine.ServeConfig(
        workload=serve.PoissonWorkload(
            rate=SERVE_SPEC["rate"], requests=SERVE_SPEC["requests"],
            deadline_factor=SERVE_SPEC["deadline_factor"], seed=seed),
        nodes=nodes,
        scheduler=scheduler.SchedulerConfig(
            policy=scheduler.Policy.FIFO, max_batch=SERVE_SPEC["max_batch"],
            power_budget_w=budget),
        seed=seed,
        book=serve.AnalyticServiceBook())


def _serve_run(config):
    report = import_module("repro.serve.engine").ServeEngine(config).run()
    return report, report.to_json()


def _report_violations(report, expected: int, label: str = "") -> List[str]:
    """Conservation of *expected* requests and the power cap, on one report."""
    violations = []
    if report.completed + len(report.dropped) != expected:
        violations.append(f"{label}conservation: {report.completed} completed "
                          f"+ {len(report.dropped)} dropped != {expected}")
    budget = report.power_budget_w
    if budget is not None and report.power_peak_w > budget * (1 + 1e-9):
        violations.append(f"{label}power peak {report.power_peak_w} W over "
                          f"budget {budget} W")
    return violations


def _serve_check(config, output) -> Outcome:
    report, text = output
    violations = _report_violations(report, SERVE_SPEC["requests"])
    if report.power_budget_w is None:
        violations.append("serve report carries no power budget")
    completed = report.completed
    return Outcome(
        units=float(report.arrivals),
        fingerprint={"arrivals": report.arrivals, "completed": completed,
                     "dropped": len(report.dropped),
                     "report_digest": digest(text)},
        violations=violations,
        stats={"requests": float(report.arrivals),
               "retry_amplification": ((completed + report.requeues)
                                       / completed if completed else 0.0),
               "hedge_waste_ratio": 0.0})


# -- chaos_sweep --------------------------------------------------------------


def _chaos_inputs(seed: int):
    chaos = import_module("repro.serve.chaos")
    return list(range(seed, seed + CHAOS_SEEDS)), chaos.pinned_campaign_plans()


def _chaos_run(inputs):
    chaos = import_module("repro.serve.chaos")
    seeds, plans = inputs
    return [chaos.run_campaign(chaos.pinned_campaign_config(seed=seed), plans,
                               chaos_seed=seed)
            for seed in seeds]


def _chaos_check(inputs, campaigns) -> Outcome:
    seeds, plans = inputs
    # Faults may delay or drop requests but never lose or duplicate one:
    # every scenario accounts for as many as the first, fault-free one.
    expected = campaigns[0].runs[0].report.arrivals
    violations = []
    cards = []
    submitted = completed = requeues = 0
    waste = busy = 0.0
    for seed, campaign in zip(seeds, campaigns):
        if len(campaign.runs) != len(plans):
            violations.append(f"seed {seed}: {len(campaign.runs)} scenarios")
        for run in campaign.runs:
            report, card = run.report, run.scorecard
            violations += _report_violations(
                report, expected, f"seed {seed} {run.scenario}: ")
            cards.append([seed, run.scenario, card])
            submitted += card["submitted"]
            completed += report.completed
            requeues += report.requeues
            hedging = (report.resilience or {}).get("hedging", {})
            waste += float(hedging.get("waste_time_s", 0.0))
            busy += sum(report.node_busy_s.values())
    return Outcome(
        units=float(submitted),
        fingerprint={"seeds": len(seeds), "submitted": submitted,
                     "completed": completed,
                     "scorecards_digest": digest(cards)},
        violations=violations,
        stats={"requests": float(submitted),
               "retry_amplification": ((completed + requeues) / completed
                                       if completed else 0.0),
               "hedge_waste_ratio": waste / busy if busy > 0 else 0.0})


# -- paper_repro --------------------------------------------------------------


def _paper_inputs(seed: int):
    return None


def _paper_run(_inputs):
    return import_module("repro.experiments.report").build_report()


def anchor_counts(report: str) -> Tuple[int, int]:
    """(reproduced, total) from the report's ``**p/t anchors`` header."""
    for line in report.splitlines():
        if line.startswith("**") and "anchors reproduced" in line:
            passed, total = line.strip("*").split(" ")[0].split("/")
            return int(passed), int(total)
    raise ValueError("report has no anchor summary line")


def _paper_check(_inputs, report: str) -> Outcome:
    passed, total = anchor_counts(report)
    violations = []
    if passed != total:
        violations.append(f"{total - passed} of {total} paper anchors missed")
    return Outcome(
        units=1.0,
        fingerprint={"anchors_passed": passed, "anchors_total": total,
                     "report_digest": digest(report)},
        violations=violations,
        stats={"anchors_missed": float(total - passed)})


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("dse_sweep", "configs", False, ("repro.dse",),
                 _dse_inputs, _dse_run, _dse_check),
        Workload("serve_drain", "requests", True,
                 ("repro.serve", "repro.serve.engine",
                  "repro.serve.scheduler"),
                 _serve_inputs, _serve_run, _serve_check),
        Workload("chaos_sweep", "requests", True, ("repro.serve.chaos",),
                 _chaos_inputs, _chaos_run, _chaos_check),
        Workload("paper_repro", "reports", False,
                 ("repro.experiments.report",),
                 _paper_inputs, _paper_run, _paper_check),
    )
}
