"""The fleet-composition planner: analytic search, DES-verified frontier.

The planner answers the provisioning question: *given a total power
budget, which mix of node archetypes serves the workload best?*  It
enumerates every in-budget :class:`~repro.capacity.composition
.Composition`, prices each one with the analytic
:class:`~repro.capacity.model.CapacityModel` (microseconds per
composition instead of a DES run), and keeps the Pareto frontier over

* **throughput** (maximize),
* **energy per request** (minimize),
* **p95 latency** (minimize),

through the generalized :func:`repro.records.pareto_frontier`.  The
frontier — the only points anyone would deploy — is then re-verified
against the :mod:`repro.serve` DES with the composition's real
heterogeneous :class:`~repro.serve.archetype.FleetSpec` and routing
table, closing the loop the same way ``capacity validate`` gates the
homogeneous model.

Records carry the dse-record shape (``config`` / ``config_hash`` /
``model_version`` / ``feasible`` / ``error`` / ``metrics``) so the
pareto, export and learning tooling consume them unchanged.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.capacity.composition import (
    Composition,
    CompositionSpace,
    routed_compositions,
)
from repro.capacity.model import (
    CapacityInputs,
    CapacityModel,
    CapacityPrediction,
)
from repro.errors import ConfigurationError, ReproError
from repro.records import pareto_frontier
from repro.serve.archetype import FleetSpec
from repro.serve.fleet import ServiceBook
from repro.serve.workload import DEFAULT_MIX

#: Version tag stamped into planner records (bump when the analytic
#: model's pricing changes in a way that invalidates cached plans).
MODEL_VERSION = "capacity-1"

#: Planner objectives, as keys into ``record["metrics"]``.
PLAN_MAXIMIZE: Tuple[str, ...] = ("throughput_rps",)
PLAN_MINIMIZE: Tuple[str, ...] = ("energy_per_request_uj",
                                  "latency_p95_ms")


@dataclass
class PlannerStats:
    """Search-side accounting of one planning run."""

    compositions: int = 0
    feasible: int = 0
    infeasible: int = 0
    elapsed_s: float = 0.0
    frontier_size: int = 0

    @property
    def compositions_per_second(self) -> float:
        return self.compositions / self.elapsed_s if self.elapsed_s > 0 \
            else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "compositions": self.compositions,
            "feasible": self.feasible,
            "infeasible": self.infeasible,
            "elapsed_s": round(self.elapsed_s, 6),
            "compositions_per_second": round(
                self.compositions_per_second, 3),
            "frontier_size": self.frontier_size,
        }


@dataclass
class PlanResult:
    """Everything one planning run produced."""

    spec: Dict[str, object]
    records: List[Dict[str, object]]
    frontier: List[Dict[str, object]]
    stats: PlannerStats
    #: One row per frontier point when DES verification ran.
    verify: List[Dict[str, object]] = field(default_factory=list)

    @property
    def verified_ok(self) -> bool:
        """Whether every DES-verified frontier point was in tolerance."""
        return all(row["verified"] for row in self.verify)


class FleetPlanner:
    """Search a :class:`CompositionSpace` for one workload point."""

    def __init__(self, space: CompositionSpace, arrival_rate: float,
                 mix: Optional[Dict[str, float]] = None,
                 requests: int = 2000, max_batch: int = 8,
                 iterations: int = 1, headroom: float = 0.85):
        if not 0 < arrival_rate < math.inf:
            raise ConfigurationError(
                f"arrival rate must be finite and positive, got {arrival_rate}")
        if not 0.0 < headroom <= 1.0:
            raise ConfigurationError(
                f"headroom must be in (0, 1], got {headroom}")
        self.space = space
        self.arrival_rate = arrival_rate
        self.mix = dict(mix) if mix is not None else dict(DEFAULT_MIX)
        total = sum(self.mix.values())
        if total <= 0:
            raise ConfigurationError(f"arrival mix has no mass: {self.mix}")
        self.requests = requests
        self.max_batch = max_batch
        self.iterations = iterations
        #: Per-class utilization ceiling.  Nobody provisions a fleet at
        #: the saturation edge: the classic headroom rule keeps every
        #: class under ~85 % so load spikes have somewhere to go — and
        #: it keeps the planner inside the regime where the analytic
        #: model and the DES agree (deep metastable queues and routing
        #: spillover live above it).
        self.headroom = headroom
        self.kernels = tuple(sorted(k for k, w in self.mix.items() if w > 0))
        #: archetype name -> built book (missing = infeasible envelope).
        self.books: Dict[str, ServiceBook] = {}
        #: archetype name -> why its book would not build.
        self.build_errors: Dict[str, str] = {}
        self._models: Dict[str, CapacityModel] = {}
        for archetype in space.catalog:
            try:
                self.books[archetype.name] = archetype.build_book()
            except ReproError as exc:
                self.build_errors[archetype.name] = str(exc)
        for name, book in self.books.items():
            self._models[name] = CapacityModel(book)

    # -- analytic evaluation -----------------------------------------------------

    def _class_inputs(self, composition: Composition,
                      requests: int) -> List[Tuple[str, int, float,
                                                   CapacityInputs]]:
        """Per-archetype ``(name, count, share, inputs)`` for a routed
        composition; archetypes with no routed kernels are left idle."""
        total = sum(self.mix[k] for k in self.kernels)
        out = []
        for archetype, count in composition.groups:
            routed = {k: self.mix[k] for k in self.kernels
                      if composition.routing.get(k) == archetype.name}
            if not routed:
                continue
            share = sum(routed.values()) / total
            out.append((archetype.name, count, share, CapacityInputs(
                arrival_rate=self.arrival_rate * share,
                requests=max(1, round(requests * share)),
                mix=routed, iterations=self.iterations, nodes=count,
                max_batch=self.max_batch)))
        return out

    def evaluate(self, composition: Composition,
                 requests: Optional[int] = None) -> Dict[str, object]:
        """One dse-shaped record for *composition*."""
        requests = requests if requests is not None else self.requests
        record: Dict[str, object] = {
            "config": composition.config(),
            "config_hash": composition.config_hash(),
            "model_version": MODEL_VERSION,
            "feasible": False,
            "error": None,
            "metrics": None,
        }
        missing = [a.name for a, _ in composition.groups
                   if a.name not in self.books]
        if missing:
            record["error"] = "; ".join(
                f"{name}: {self.build_errors[name]}" for name in missing)
            return record
        classes = self._class_inputs(composition, requests)
        if not classes:
            record["error"] = "no kernel routed to any archetype"
            return record
        predictions: List[Tuple[str, int, float, CapacityPrediction]] = []
        for name, count, share, inputs in classes:
            prediction = self._models[name].predict(inputs)
            if not prediction.stable:
                record["error"] = (
                    f"saturated: {name} x{count} cannot carry "
                    f"{inputs.arrival_rate:.1f} rps")
                return record
            load = prediction.offered_load / max(prediction.servers, 1)
            if load > self.headroom:
                record["error"] = (
                    f"no headroom: {name} x{count} at "
                    f"{load:.0%} > {self.headroom:.0%} utilization")
                return record
            predictions.append((name, count, share, prediction))
        record["feasible"] = True
        record["metrics"] = self._merge(composition, predictions, requests)
        return record

    def _merge(self, composition: Composition,
               predictions: List[Tuple[str, int, float, CapacityPrediction]],
               requests: int) -> Dict[str, float]:
        """Fleet-level metrics from the per-class predictions.

        Classes serve disjoint kernel slices of one Poisson stream, so
        each class's share of requests finishes in about
        ``N_c / lambda_c = N / lambda`` plus its own drain; the fleet
        run ends with the slowest class.
        """
        lam = self.arrival_rate
        mean_latency = sum(share * p.mean_latency_s
                           for _, _, share, p in predictions)
        duration = requests / lam + max(p.mean_latency_s
                                        for _, _, _, p in predictions)
        energy = sum(share * p.energy_per_request_j
                     for _, _, share, p in predictions)
        nodes = composition.nodes
        busy = sum(count * p.utilization for _, count, _, p in predictions)
        p95 = self._merged_percentile(predictions, 0.95)
        return {
            "throughput_rps": requests / duration,
            "mean_latency_ms": mean_latency * 1e3,
            "latency_p95_ms": p95 * 1e3,
            "energy_per_request_uj": energy * 1e6,
            "provisioned_power_mw": composition.provisioned_w * 1e3,
            "nodes": float(nodes),
            "utilization": busy / nodes,
        }

    @staticmethod
    def _merged_percentile(
            predictions: List[Tuple[str, int, float, CapacityPrediction]],
            q: float) -> float:
        """Fleet latency quantile off the share-weighted survival mix."""
        laws = [(share, p.survival_law()) for _, _, share, p in predictions]

        def survival(t: float) -> float:
            return sum(share * law(t) for share, law in laws)

        target = 1.0 - q
        hi = max(p.latency_p95_s for _, _, _, p in predictions) + 1e-6
        while survival(hi) > target:
            hi *= 2.0
            if hi > 1e9:
                return math.inf
        lo = 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if survival(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # -- the search --------------------------------------------------------------

    def plan(self) -> PlanResult:
        """Evaluate the whole space and keep the Pareto frontier."""
        stats = PlannerStats()
        started = time.perf_counter()
        records = []
        for composition in routed_compositions(self.space, self.books,
                                               self.kernels):
            record = self.evaluate(composition)
            stats.compositions += 1
            if record["feasible"]:
                stats.feasible += 1
            else:
                stats.infeasible += 1
            records.append(record)
        records.sort(key=lambda r: r["config_hash"])
        frontier = pareto_frontier(records, maximize=PLAN_MAXIMIZE,
                                   minimize=PLAN_MINIMIZE)
        stats.elapsed_s = time.perf_counter() - started
        stats.frontier_size = len(frontier)
        spec = {
            "arrival_rate": self.arrival_rate,
            "mix": dict(sorted(self.mix.items())),
            "requests": self.requests,
            "max_batch": self.max_batch,
            "iterations": self.iterations,
            "space": self.space.to_dict(),
            "model_version": MODEL_VERSION,
            "objectives": {"maximize": list(PLAN_MAXIMIZE),
                           "minimize": list(PLAN_MINIMIZE)},
        }
        return PlanResult(spec=spec, records=records, frontier=frontier,
                          stats=stats)

    # -- DES re-verification -----------------------------------------------------

    def composition_from_record(self,
                                record: Dict[str, object]) -> Composition:
        """Rebuild the :class:`Composition` a record was priced from."""
        config = record["config"]
        by_name = {a.name: a for a in self.space.catalog}
        groups = tuple((by_name[name], count)
                       for name, count in config["archetypes"].items())
        return Composition(groups=groups, routing=dict(config["routing"]))

    def fleet_spec(self, composition: Composition) -> FleetSpec:
        """The heterogeneous DES fleet of a composition."""
        return FleetSpec(groups=composition.groups,
                         routing=dict(composition.routing))

    def verify_frontier(self, result: PlanResult, seed: int = 7,
                        requests: int = 600,
                        tolerance: float = 0.15) -> PlanResult:
        """Re-run every frontier point through the serve DES.

        Appends one row per point to ``result.verify`` with the DES
        metrics and the relative analytic errors on the gated pair
        (mean latency, throughput).  The analytic side is re-evaluated
        at the verification request count so both sides price the same
        finite run.
        """
        from repro.serve.engine import ServeConfig, ServeEngine
        from repro.serve.scheduler import SchedulerConfig
        from repro.serve.workload import PoissonWorkload

        result.verify = []
        for record in result.frontier:
            composition = self.composition_from_record(record)
            analytic = self.evaluate(composition, requests=requests)
            config = ServeConfig(
                workload=PoissonWorkload(rate=self.arrival_rate,
                                         requests=requests, seed=seed,
                                         iterations=self.iterations,
                                         deadline_factor=None),
                scheduler=SchedulerConfig(max_batch=self.max_batch),
                fleet=self.fleet_spec(composition))
            report = ServeEngine(config).run()
            des = report.metrics()
            row: Dict[str, object] = {
                "config_hash": record["config_hash"],
                "label": composition.label(),
                "seed": seed,
                "requests": requests,
                "des": {
                    "throughput_rps": des["throughput_rps"],
                    "mean_latency_ms": des["mean_latency_ms"],
                    "latency_p95_ms": des["latency_p95_ms"],
                    "energy_per_request_uj": des["energy_per_request_uj"],
                },
            }
            if analytic["feasible"]:
                metrics = analytic["metrics"]
                errors = {
                    "mean_latency": metrics["mean_latency_ms"]
                    / des["mean_latency_ms"] - 1.0,
                    "throughput": metrics["throughput_rps"]
                    / des["throughput_rps"] - 1.0,
                }
                row["model"] = {k: metrics[k] for k in (
                    "throughput_rps", "mean_latency_ms", "latency_p95_ms",
                    "energy_per_request_uj")}
                row["error"] = {k: round(v, 6) for k, v in errors.items()}
                row["verified"] = all(abs(v) <= tolerance
                                      for v in errors.values())
            else:
                row["model"] = None
                row["error"] = None
                row["verified"] = False
            result.verify.append(row)
        return result
