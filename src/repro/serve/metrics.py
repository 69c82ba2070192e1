"""Queueing metrics of a serving run.

Per-request :class:`RequestRecord` rows are folded into a
:class:`ServeReport`: latency percentiles (nearest-rank, so reruns are
bit-identical — no interpolation float noise), throughput, per-node
utilization, energy per request, deadline-miss / drop / host-fallback
rates, and the fleet power timeline against the budget.

When the global telemetry hub (:mod:`repro.obs`) is enabled, every
request also becomes a span on a per-node lane (queue wait as a separate
``wait`` span) and the headline rates become counters, so a serving run
exports to the same Perfetto trace as every other subsystem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs import get_telemetry
from repro.serve.workload import Request
from repro.units import ordered_sum


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of *values* (q in [0, 100])."""
    if not values:
        raise ConfigurationError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile out of range: {q}")
    return _nearest_rank(sorted(values), q)


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """The nearest-rank *q* percentile of an already sorted sample."""
    # ceil(q/100 * N) in exact integer arithmetic: no float noise.
    scaled = int(q * 100) * len(ordered)
    rank = -(-scaled // 10000)
    return ordered[max(1, min(rank, len(ordered))) - 1]


def _tail_percentiles(values: List[float]) -> Dict[str, float]:
    """p50/p95/p99 of *values*, sorted once (zeros when empty)."""
    if not values:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    values.sort()
    return {"p50": _nearest_rank(values, 50.0),
            "p95": _nearest_rank(values, 95.0),
            "p99": _nearest_rank(values, 99.0)}


@dataclass
class RequestRecord:
    """One served request's timeline."""

    request: Request
    start_s: float               #: dispatch (service start) time
    end_s: float                 #: completion time
    node: str                    #: serving backend name
    tier: str                    #: service tier ("fast"/"eco"/"host")
    requeues: int = 0            #: times bounced off a dying node
    fault_attempts: int = 0      #: failed attempts on the serving node
    wasted_time_s: float = 0.0   #: recovery time attributed to this request
    wasted_energy_j: float = 0.0
    energy_j: float = 0.0        #: total energy attributed to this request

    @property
    def wait_s(self) -> float:
        """Queue wait: arrival to service start."""
        return self.start_s - self.request.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end: arrival to completion."""
        return self.end_s - self.request.arrival_s

    @property
    def missed_deadline(self) -> bool:
        """Whether the request completed after its deadline."""
        return (self.request.deadline_s is not None
                and self.end_s > self.request.deadline_s)


@dataclass
class ServeReport:
    """The folded statistics of one serving run."""

    policy: str
    workload: str
    nodes: int
    duration_s: float
    records: List[RequestRecord]
    dropped: List[Tuple[Request, str]]
    power_timeline: List[Tuple[float, float]] = field(default_factory=list)
    power_peak_w: float = 0.0
    power_budget_w: Optional[float] = None
    node_busy_s: Dict[str, float] = field(default_factory=dict)
    node_requests: Dict[str, int] = field(default_factory=dict)
    node_batches: Dict[str, int] = field(default_factory=dict)
    node_energy_j: Dict[str, float] = field(default_factory=dict)
    dead_nodes: int = 0
    reboots: int = 0
    fleet_energy_j: float = 0.0
    #: Resilience section (breakers / retry budget / hedging / overload /
    #: SLO burn + alerts) — present only when the engine ran with a
    #: ResilienceConfig; ``None`` keeps plain reports byte-identical.
    resilience: Optional[Dict[str, object]] = None
    #: node name -> archetype name — present only on heterogeneous
    #: fleets (a FleetSpec run); ``None`` keeps plain reports identical.
    node_archetypes: Optional[Dict[str, str]] = None

    # -- derived ----------------------------------------------------------------

    @property
    def completed(self) -> int:
        """Requests served to completion."""
        return len(self.records)

    @property
    def arrivals(self) -> int:
        """Requests that entered the system."""
        return self.completed + len(self.dropped)

    @property
    def throughput(self) -> float:
        """Completions per second of simulated time."""
        return self.completed / self.duration_s if self.duration_s > 0 \
            else 0.0

    @property
    def deadline_misses(self) -> int:
        """Completed requests that finished past their deadline."""
        return sum(1 for record in self.records if record.missed_deadline)

    @property
    def miss_rate(self) -> float:
        """Deadline misses plus drops, over all arrivals."""
        if not self.arrivals:
            return 0.0
        return (self.deadline_misses + len(self.dropped)) / self.arrivals

    @property
    def drop_rate(self) -> float:
        """Dropped requests over all arrivals."""
        return len(self.dropped) / self.arrivals if self.arrivals else 0.0

    @property
    def fallbacks(self) -> int:
        """Requests served by the host backend."""
        return sum(1 for record in self.records if record.tier == "host")

    @property
    def requeues(self) -> int:
        """Requests bounced off a dying node (then served elsewhere)."""
        return sum(record.requeues for record in self.records)

    @property
    def energy_per_request_j(self) -> float:
        """Attributed service energy per completed request."""
        if not self.records:
            return 0.0
        return ordered_sum([record.energy_j for record in self.records]) \
            / self.completed

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 end-to-end latency (seconds)."""
        return _tail_percentiles([record.latency_s
                                  for record in self.records])

    def wait_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 queue wait (seconds)."""
        return _tail_percentiles([record.wait_s for record in self.records])

    def mean_wait_s(self) -> float:
        """Mean queue wait (the M/M/1 Wq observable)."""
        if not self.records:
            return 0.0
        return ordered_sum([record.wait_s for record in self.records]) \
            / self.completed

    def mean_latency_s(self) -> float:
        """Mean end-to-end latency (the capacity model's W observable)."""
        if not self.records:
            return 0.0
        return ordered_sum([record.latency_s for record in self.records]) \
            / self.completed

    def utilization(self) -> Dict[str, float]:
        """Busy fraction of the run, per backend."""
        if self.duration_s <= 0:
            return {name: 0.0 for name in self.node_busy_s}
        return {name: busy / self.duration_s
                for name, busy in self.node_busy_s.items()}

    # -- rendering --------------------------------------------------------------

    def metrics(self) -> Dict[str, object]:
        """The flat JSON-safe summary (the CLI ``--json`` payload)."""
        latency = self.latency_percentiles()
        wait = self.wait_percentiles()
        drop_reasons: Dict[str, int] = {}
        for _, reason in self.dropped:
            drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
        return {
            "policy": self.policy,
            "workload": self.workload,
            "nodes": self.nodes,
            "duration_s": round(self.duration_s, 9),
            "arrivals": self.arrivals,
            "completed": self.completed,
            "dropped": len(self.dropped),
            "drop_reasons": drop_reasons,
            "throughput_rps": round(self.throughput, 6),
            "latency_p50_ms": round(latency["p50"] * 1e3, 6),
            "latency_p95_ms": round(latency["p95"] * 1e3, 6),
            "latency_p99_ms": round(latency["p99"] * 1e3, 6),
            "wait_p50_ms": round(wait["p50"] * 1e3, 6),
            "wait_p95_ms": round(wait["p95"] * 1e3, 6),
            "wait_p99_ms": round(wait["p99"] * 1e3, 6),
            "mean_wait_ms": round(self.mean_wait_s() * 1e3, 6),
            "mean_latency_ms": round(self.mean_latency_s() * 1e3, 6),
            "deadline_misses": self.deadline_misses,
            "miss_rate": round(self.miss_rate, 6),
            "drop_rate": round(self.drop_rate, 6),
            "host_fallbacks": self.fallbacks,
            "requeues": self.requeues,
            "fault_attempts": sum(r.fault_attempts for r in self.records),
            "wasted_time_ms": round(ordered_sum(
                [r.wasted_time_s for r in self.records]) * 1e3, 6),
            "wasted_energy_uj": round(ordered_sum(
                [r.wasted_energy_j for r in self.records]) * 1e6, 6),
            "energy_per_request_uj": round(
                self.energy_per_request_j * 1e6, 6),
            "fleet_energy_mj": round(self.fleet_energy_j * 1e3, 6),
            "utilization": {name: round(value, 6)
                            for name, value in self.utilization().items()},
            "dead_nodes": self.dead_nodes,
            "reboots": self.reboots,
            "power_peak_mw": round(self.power_peak_w * 1e3, 6),
            "power_budget_mw": (None if self.power_budget_w is None
                                else round(self.power_budget_w * 1e3, 6)),
        }

    def to_json_dict(self) -> Dict[str, object]:
        """Full payload: summary plus per-node and power-timeline detail."""
        payload = self.metrics()
        payload["per_node"] = {
            name: {
                "requests": self.node_requests.get(name, 0),
                "batches": self.node_batches.get(name, 0),
                "busy_s": round(self.node_busy_s.get(name, 0.0), 9),
                "energy_mj": round(
                    self.node_energy_j.get(name, 0.0) * 1e3, 9),
            }
            for name in sorted(self.node_busy_s)
        }
        payload["power_timeline_mw"] = [
            [round(t, 9), round(watts * 1e3, 6)]
            for t, watts in self.power_timeline]
        if self.resilience is not None:
            payload["resilience"] = self.resilience
        if self.node_archetypes is not None:
            payload["node_archetypes"] = {
                name: self.node_archetypes[name]
                for name in sorted(self.node_archetypes)}
        return payload

    @property
    def slo_worst_burn(self) -> Optional[float]:
        """Worst SLO error-budget burn (``None`` without resilience)."""
        if self.resilience is None:
            return None
        return self.resilience["slo"]["worst_burn"]

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The full payload as a JSON string (stable key order)."""
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-readable summary table."""
        summary = self.metrics()
        lines = [
            f"serve: {summary['policy']} over {summary['nodes']} nodes, "
            f"{summary['workload']}",
            f"  requests   : {summary['completed']} completed / "
            f"{summary['arrivals']} arrived "
            f"({summary['dropped']} dropped) in {self.duration_s * 1e3:.2f} ms",
            f"  throughput : {summary['throughput_rps']:.1f} req/s",
            f"  latency    : p50 {summary['latency_p50_ms']:.3f}  "
            f"p95 {summary['latency_p95_ms']:.3f}  "
            f"p99 {summary['latency_p99_ms']:.3f} ms",
            f"  queue wait : p50 {summary['wait_p50_ms']:.3f}  "
            f"p95 {summary['wait_p95_ms']:.3f}  "
            f"p99 {summary['wait_p99_ms']:.3f} ms "
            f"(mean {summary['mean_wait_ms']:.3f})",
            f"  deadlines  : {summary['deadline_misses']} missed, "
            f"miss rate {summary['miss_rate']:.2%} "
            f"(drop rate {summary['drop_rate']:.2%})",
            f"  resilience : {summary['fault_attempts']} fault attempts, "
            f"{summary['requeues']} requeues, "
            f"{summary['host_fallbacks']} host fallbacks, "
            f"{summary['dead_nodes']} dead nodes, "
            f"{summary['reboots']} reboots",
            f"  energy     : {summary['energy_per_request_uj']:.2f} uJ/request, "
            f"fleet {summary['fleet_energy_mj']:.3f} mJ",
        ]
        budget = summary["power_budget_mw"]
        cap = f" (budget {budget:.3f} mW)" if budget is not None else ""
        lines.append(
            f"  power      : peak {summary['power_peak_mw']:.3f} mW{cap}")
        util = summary["utilization"]
        if util:
            pieces = ", ".join(f"{name} {value:.1%}"
                               for name, value in sorted(util.items()))
            lines.append(f"  utilization: {pieces}")
        if self.resilience is not None:
            res = self.resilience
            lines.append(
                f"  fleet      : {res['breakers']['trips']} breaker trips, "
                f"{res['retry_budget']['spent']} retry tokens spent "
                f"({res['retry_budget']['denied']} denied), "
                f"{res['hedging']['issued']} hedges "
                f"({res['hedging']['wins']} wins), "
                f"{res['overload']['sheds']} shed")
            lines.append(
                f"  slo        : worst burn {res['slo']['worst_burn']:.3f}, "
                f"{len(res['alerts'])} alerts, overload peak "
                f"{res['overload']['peak_level']}")
        return "\n".join(lines)

    # -- telemetry --------------------------------------------------------------

    def emit_telemetry(self) -> None:
        """Mirror the run into the global hub (no-op when disabled)."""
        hub = get_telemetry()
        if not hub.enabled:
            return
        # One span per *batch*: requests of a batch share the service
        # interval, and a node serves one batch at a time, so the lane
        # stays overlap-free for the Chrome exporter.
        batches: Dict[Tuple[str, float, float], List[RequestRecord]] = {}
        for record in self.records:
            batches.setdefault(
                (record.node, record.start_s, record.end_s), []).append(record)
        for (node, start, end), members in sorted(batches.items()):
            lead = members[0]
            hub.span(f"{lead.request.kernel} x{len(members)}",
                     f"serve.{node}", start, end - start,
                     energy=ordered_sum([m.energy_j for m in members]),
                     requests=len(members), tier=lead.tier,
                     max_wait_ms=round(
                         max(m.wait_s for m in members) * 1e3, 6),
                     fault_attempts=sum(m.fault_attempts for m in members))
        hub.count("serve.completed", self.completed)
        if self.dropped:
            hub.count("serve.dropped", len(self.dropped))
        if self.deadline_misses:
            hub.count("serve.deadline_misses", self.deadline_misses)
        if self.requeues:
            hub.count("serve.requeues", self.requeues)
        if self.fallbacks:
            hub.count("serve.host_fallbacks", self.fallbacks)
        if self.resilience is not None:
            res = self.resilience
            if res["breakers"]["trips"]:
                hub.count("serve.breaker_trips", res["breakers"]["trips"])
            if res["hedging"]["issued"]:
                hub.count("serve.hedges", res["hedging"]["issued"])
            if res["overload"]["sheds"]:
                hub.count("serve.shed", res["overload"]["sheds"])
            slo = res["slo"]
            violations = sum(k["latency_violations"]
                             for k in slo["kernels"].values())
            if violations:
                hub.count("slo.latency_violations", violations)
            slo_dropped = sum(k["dropped"] for k in slo["kernels"].values())
            if slo_dropped:
                hub.count("slo.dropped", slo_dropped)
            exhausted = sum(
                1 for k in slo["kernels"].values()
                if k["latency_burn"] >= 1.0 or k["availability_burn"] >= 1.0)
            if exhausted:
                hub.count("slo.budget_exhausted", exhausted)
            if res["alerts"]:
                hub.count("slo.alerts", len(res["alerts"]))
        for t, watts in self.power_timeline:
            hub.gauge("serve.power_mw", watts * 1e3, ts=t, unit="mW")
