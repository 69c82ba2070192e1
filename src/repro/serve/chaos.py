"""Chaos campaigns: fleet-scope fault plans driven through the engine.

A campaign takes one :class:`~repro.serve.engine.ServeConfig` and a set
of :class:`~repro.faults.FleetPlan` scenarios, runs each scenario as its
own fully seeded simulation, and folds the outcomes into a resilience
scorecard:

==========================  ==================================================
scorecard field             meaning
==========================  ==================================================
``availability``            completed / submitted requests
``retry_amplification``     (completions + requeues) / completions — how much
                            extra work node deaths induced
``hedge_waste_ratio``       hedging losers' busy time over total busy time
``slo_worst_burn``          worst per-kernel error-budget burn (>= 1.0 means
                            the budget is exhausted)
``verdict``                 ``healthy`` | ``slo-exhausted`` | ``collapsed``
==========================  ==================================================

Determinism: every scenario is expanded by a seeded
:class:`~repro.faults.FleetInjector` into timed actions **before** the
run and installed as cancellable simulator callbacks, and arrival-surge
events time-warp the (pregenerated) arrival stream through
:class:`~repro.serve.workload.SurgedWorkload` — so a rerun of the same
campaign is bit-identical, and a run under the *empty* plan is
bit-identical to a plain ``repro serve`` of the same config.

The CLI exit-code contract (``repro chaos``):

=====  =======================================================
code   meaning
=====  =======================================================
0      every scenario healthy
3      an SLO error budget was exhausted (worst burn >= 1.0)
4      fleet collapse (availability under the threshold)
=====  =======================================================
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.faults.injector import FleetAction, FleetInjector
from repro.faults.plan import FleetPlan
from repro.serve.engine import ServeConfig, ServeEngine, default_power_budget
from repro.serve.fleet import AnalyticServiceBook
from repro.serve.metrics import ServeReport
from repro.serve.resilience import AlertEvent, ResilienceConfig
from repro.serve.scheduler import Policy, SchedulerConfig
from repro.serve.workload import PoissonWorkload, SurgedWorkload
from repro.units import ordered_sum

#: ``repro chaos`` exit codes (0 is the implicit healthy code).
CHAOS_EXIT_SLO = 3
CHAOS_EXIT_COLLAPSE = 4


class ChaosInjector:
    """Installs a plan's timed fleet actions onto a live engine.

    Actions are scheduled as cancellable simulator callbacks before the
    run starts; a drain hook cancels whatever is still pending when the
    engine finishes, so a plan outliving the workload neither stalls the
    drain nor inflates the reported duration.
    """

    def __init__(self, engine: ServeEngine, plan: FleetPlan, seed: int = 1):
        self.engine = engine
        self.plan = plan
        self.injector = FleetInjector(plan, seed)
        self.events: List[Tuple[float, str]] = []
        self._handles: List[int] = []

    def install(self) -> None:
        """Schedule every timed action and register the drain hook."""
        simulator = self.engine.simulator
        for action in self.injector.actions(len(self.engine.fleet.nodes)):
            self._handles.append(simulator.schedule(
                action.at_s - simulator.now, self._apply, action))
        self.engine.drain_hooks.append(self.cancel_pending)

    def cancel_pending(self) -> None:
        """Cancel every not-yet-fired action (idempotent)."""
        for handle in self._handles:
            self.engine.simulator.cancel(handle)
        self._handles = []

    def _apply(self, action: FleetAction) -> None:
        fleet = self.engine.fleet
        now = self.engine.simulator.now
        if action.action == "crash":
            node = fleet.nodes[action.node]
            self.events.append((now, f"crash {node.name}"))
            node.crash()
        elif action.action == "recover":
            node = fleet.nodes[action.node]
            self.events.append((now, f"recover {node.name}"))
            node.recover()
        elif action.action == "droop":
            self.events.append((now, f"fleet droop x{action.droop:g}"))
            for node in fleet.nodes:
                node.droop = node.base_droop * action.droop
        elif action.action == "restore":
            self.events.append((now, "fleet droop restored"))
            for node in fleet.nodes:
                node.droop = node.base_droop
        # Availability changed out-of-band: re-evaluate dispatch.
        self.engine.kick()


@dataclass
class ChaosRun:
    """One scenario's outcome."""

    scenario: str
    report: ServeReport
    scorecard: Dict[str, object]
    alerts: List[AlertEvent]
    events: List[Tuple[float, str]]

    @property
    def verdict(self) -> str:
        return str(self.scorecard["verdict"])

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "scorecard": self.scorecard,
            "events": [[round(t, 9), what] for t, what in self.events],
            "alerts": [alert.to_dict() for alert in self.alerts],
        }


@dataclass
class ChaosCampaignResult:
    """Every scenario of a campaign, plus the aggregate verdict."""

    runs: List[ChaosRun]

    @property
    def verdict(self) -> str:
        verdicts = [run.verdict for run in self.runs]
        if "collapsed" in verdicts:
            return "collapsed"
        if "slo-exhausted" in verdicts:
            return "slo-exhausted"
        return "healthy"

    @property
    def exit_code(self) -> int:
        """The ``repro chaos`` exit-code contract."""
        verdict = self.verdict
        if verdict == "collapsed":
            return CHAOS_EXIT_COLLAPSE
        if verdict == "slo-exhausted":
            return CHAOS_EXIT_SLO
        return 0

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "verdict": self.verdict,
            "exit_code": self.exit_code,
            "scenarios": [run.to_json_dict() for run in self.runs],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Stable JSON (reruns of a seeded campaign compare equal)."""
        return json.dumps(self.to_json_dict(), indent=indent,
                          sort_keys=True)

    def render(self) -> str:
        """The scorecard table."""
        lines = ["chaos campaign:"]
        for run in self.runs:
            card = run.scorecard
            amp = card["retry_amplification"]
            burn = card["slo_worst_burn"]
            lines.append(
                f"  {run.scenario:<24} {card['verdict']:<13} "
                f"avail {card['availability']:.4f}  "
                f"amp {amp if amp is not None else float('nan'):.3f}  "
                f"p95 {card['latency_p95_ms']:.3f} ms  "
                f"burn {burn if burn is not None else 0.0:.3f}  "
                f"hedge waste {card['hedge_waste_ratio']:.4f}")
        lines.append(f"  verdict: {self.verdict} "
                     f"(exit {self.exit_code})")
        return "\n".join(lines)


def build_scorecard(report: ServeReport,
                    collapse_threshold: float = 0.5) -> Dict[str, object]:
    """Fold one run's report into the resilience scorecard."""
    metrics = report.metrics()
    completed = len(report.records)
    submitted = report.arrivals
    availability = completed / submitted if submitted else 0.0
    requeues = report.requeues
    busy = ordered_sum(report.node_busy_s.values())
    res = report.resilience or {}
    hedging = res.get("hedging", {})
    waste = float(hedging.get("waste_time_s", 0.0))
    burn = report.slo_worst_burn
    if availability < collapse_threshold:
        verdict = "collapsed"
    elif burn is not None and burn >= 1.0:
        verdict = "slo-exhausted"
    else:
        verdict = "healthy"
    return {
        "submitted": submitted,
        "completed": completed,
        "dropped": len(report.dropped),
        "availability": round(availability, 6),
        "retry_amplification": (round((completed + requeues) / completed, 6)
                                if completed else None),
        "requeues": requeues,
        "latency_p95_ms": metrics["latency_p95_ms"],
        "host_fallbacks": report.fallbacks,
        "dead_nodes": report.dead_nodes,
        "reboots": report.reboots,
        "breaker_trips": res.get("breakers", {}).get("trips", 0),
        "retry_denied": res.get("retry_budget", {}).get("denied", 0),
        "hedges": hedging.get("issued", 0),
        "hedge_wins": hedging.get("wins", 0),
        "hedge_waste_ratio": round(waste / busy, 6) if busy > 0 else 0.0,
        "sheds": res.get("overload", {}).get("sheds", 0),
        "overload_peak": res.get("overload", {}).get("peak_level", 0),
        "slo_worst_burn": None if burn is None else round(burn, 6),
        "alerts": len(res.get("alerts", [])),
        "energy_per_request_uj": metrics["energy_per_request_uj"],
        "verdict": verdict,
    }


def run_scenario(config: ServeConfig, plan: FleetPlan, *,
                 chaos_seed: int = 1,
                 collapse_threshold: float = 0.5) -> ChaosRun:
    """Run *config* under *plan* and score the outcome.

    The passed config is never mutated: arrival surges wrap the workload
    on a :func:`dataclasses.replace` copy, so one config can back many
    scenarios (and bench repeats) without cross-contamination.
    """
    windows = FleetInjector(plan, chaos_seed).surge_windows()
    if windows:
        config = dataclasses.replace(
            config, workload=SurgedWorkload(config.workload, windows))
    engine = ServeEngine(config)
    chaos = ChaosInjector(engine, plan, chaos_seed)
    chaos.install()
    report = engine.run()
    alerts = engine.res.all_alerts() if engine.res is not None else []
    return ChaosRun(
        scenario=plan.name,
        report=report,
        scorecard=build_scorecard(report, collapse_threshold),
        alerts=alerts,
        events=list(chaos.events))


def run_campaign(config: ServeConfig, plans: List[FleetPlan], *,
                 chaos_seed: int = 1,
                 collapse_threshold: float = 0.5) -> ChaosCampaignResult:
    """Run every plan as its own seeded simulation of *config*."""
    return ChaosCampaignResult(runs=[
        run_scenario(config, plan, chaos_seed=chaos_seed,
                     collapse_threshold=collapse_threshold)
        for plan in plans])


def pinned_campaign_plans() -> List[FleetPlan]:
    """The default campaign: one plan per fleet-scope failure family."""
    return [
        FleetPlan.empty(),
        FleetPlan.crash_storm(nodes=3, start_s=0.1, window_s=0.3,
                              recover_s=0.5),
        FleetPlan.fleet_brownout(droop=0.6, start_s=0.2, window_s=0.8),
        FleetPlan.flapping(nodes=1, period_s=0.15, start_s=0.1,
                           window_s=1.0),
        FleetPlan.fleet_combined(
            "surge+brownout",
            FleetPlan.arrival_surge(factor=4.0, start_s=0.2, window_s=0.3),
            FleetPlan.fleet_brownout(droop=0.7, start_s=0.2, window_s=0.5)),
    ]


def pinned_campaign_config(
        nodes: int = 4, seed: int = 1,
        resilience: Optional[ResilienceConfig] = None) -> ServeConfig:
    """The pinned serving config the default campaign runs against.

    The resilience watermarks are sized so the pinned scenarios ride out
    their outages on requeues, recovery, and host-assist — every request
    is eventually served (the crash storm still exhausts its latency
    error budget, which is the point: the SLO machinery reports the
    damage that availability alone hides).  Shedding under these
    watermarks indicates genuine collapse, not a twitchy ladder.
    """
    book = AnalyticServiceBook()
    return ServeConfig(
        workload=PoissonWorkload(rate=400.0, requests=240, seed=seed),
        nodes=nodes,
        scheduler=SchedulerConfig(
            policy=Policy.POWER_CAP,
            power_budget_w=default_power_budget(book, nodes),
            max_batch=4),
        seed=seed,
        book=book,
        resilience=resilience if resilience is not None
        else ResilienceConfig(queue_high=96, queue_low=12,
                              overload_patience=4, retry_budget=32))
