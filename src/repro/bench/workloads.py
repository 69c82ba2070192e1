"""Pinned benchmark workloads: one fixed spec per engine hot path.

Every suite is a :class:`BenchSuite` with a frozen ``spec`` (workload
knobs *including seeds*), an untimed :meth:`~BenchSuite.prepare` step
(building workloads, lowering kernels, seeding caches), and a timed
:meth:`~BenchSuite.execute` step that returns the work-unit count plus
a *deterministic fingerprint* of the engine's output.  The runner times
``execute`` alone, asserts the fingerprint is bit-identical across
repeats, and attributes time to phases through the
:class:`~repro.obs.profile.PhaseProfiler` passed into both steps.

The registry covers every engine named by ROADMAP item 1:

========== ============ ====================================================
suite      units        hot path
========== ============ ====================================================
sim        cycles       DES cluster replay of a lowered kernel loop
serve      requests     ``repro.serve`` Poisson run to drain
dse_cold   configs      ``repro.dse`` exploration, empty cache and memos
dse_cached configs      same exploration served entirely from the cache
faults     scenarios    ``repro.faults`` campaign on the resilient driver
analysis   programs     ``repro.analysis`` lint + SPMD pass over builtins
learn      predictions  ``repro.learn`` model inference over the corpus
capacity   evaluations  ``repro.capacity`` analytic fleet predictions
========== ============ ====================================================
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import BenchmarkError
from repro.obs.profile import PhaseProfiler


def fingerprint_digest(payload: Any) -> str:
    """Short stable digest of a JSON-serializable payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SuiteResult:
    """What one timed execution produced."""

    units: float                    #: work units processed (for throughput)
    fingerprint: Dict[str, Any]     #: deterministic engine-output summary


class BenchSuite:
    """One pinned workload: untimed prepare, timed execute."""

    #: Registry key and BENCH_<n>.json suite name.
    name: str = ""
    #: What one unit of work is (``throughput`` is units per second).
    units: str = ""
    #: Pinned workload knobs, including every seed.
    spec: Dict[str, Any] = {}

    def prepare(self, profiler: PhaseProfiler) -> Any:
        """Build per-repeat state outside the timed window."""
        return None

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        """Run the hot path once; everything here is on the clock."""
        raise NotImplementedError

    def cleanup(self, state: Any) -> None:
        """Release per-repeat state (temp dirs etc.)."""


class SimSuite(BenchSuite):
    """DES cluster simulation throughput, in simulated cycles/second."""

    name = "sim"
    units = "cycles"
    spec = {"kernel": "matmul", "cores": 4, "cycle_cap": 20000.0,
            "dma_bytes": 1024, "pattern": "strided"}

    def prepare(self, profiler: PhaseProfiler) -> Any:
        from repro.core.system import HeterogeneousSystem
        from repro.kernels import kernel_by_name
        from repro.pulp.timing import kernel_op_streams

        with profiler.phase("sim;lower"):
            system = HeterogeneousSystem()
            kernel = kernel_by_name(self.spec["kernel"])
            streams = kernel_op_streams(
                kernel.build_program(), system.target, self.spec["cores"],
                cycle_cap=self.spec["cycle_cap"])
        dma_bytes = self.spec["dma_bytes"]
        return streams, [(0, 0, dma_bytes, True),
                         (0, 4096, dma_bytes, False)]

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        from repro.pulp.cluster import Cluster

        streams, dma_jobs = state
        with profiler.phase("sim;simulate"):
            run = Cluster().run(streams, dma_jobs=dma_jobs)
        fingerprint = {
            "wall_cycles": run.wall_cycles,
            "conflict_rate": round(run.conflict_rate, 12),
            "barrier_count": run.barrier_count,
        }
        return SuiteResult(units=run.wall_cycles, fingerprint=fingerprint)


class ServeSuite(BenchSuite):
    """Serving-runtime throughput at drain, in completed requests/second."""

    name = "serve"
    units = "requests"
    spec = {"nodes": 4, "policy": "fifo", "arrival_rate": 250.0,
            "requests": 400, "iterations": 1, "deadline_factor": 25.0,
            "max_batch": 8, "host_mhz": 8.0, "seed": 7}

    def prepare(self, profiler: PhaseProfiler) -> Any:
        from repro.serve import AnalyticServiceBook, PoissonWorkload
        from repro.serve.engine import ServeConfig
        from repro.serve.scheduler import Policy, SchedulerConfig

        with profiler.phase("serve;setup"):
            book = AnalyticServiceBook(host_mhz=self.spec["host_mhz"])
            workload = PoissonWorkload(
                rate=self.spec["arrival_rate"],
                requests=self.spec["requests"],
                deadline_factor=self.spec["deadline_factor"],
                iterations=self.spec["iterations"], seed=self.spec["seed"])
            return ServeConfig(
                workload=workload, nodes=self.spec["nodes"],
                scheduler=SchedulerConfig(
                    policy=Policy(self.spec["policy"]),
                    max_batch=self.spec["max_batch"]),
                seed=self.spec["seed"], book=book)

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        from repro.serve.engine import ServeEngine

        with profiler.phase("serve;run"):
            report = ServeEngine(state).run()
        payload = report.to_json_dict()
        summary = report.metrics()
        fingerprint = {
            "arrivals": summary["arrivals"],
            "completed": summary["completed"],
            "dropped": summary["dropped"],
            "duration_s": summary["duration_s"],
            "deadline_misses": summary["deadline_misses"],
            "digest": fingerprint_digest(payload),
        }
        return SuiteResult(units=float(summary["completed"]),
                           fingerprint=fingerprint)


#: The pinned exploration grid shared by both DSE suites: 16 configs.
_DSE_GRID = {"kernel": ["matmul"], "host_mhz": [2.0, 4.0, 8.0, 16.0],
             "budget_mw": [5.0, 10.0], "spi_mode": ["single", "quad"]}


class _DseSuite(BenchSuite):
    """Shared machinery of the cold and cached exploration suites."""

    units = "configs"

    def _space(self):
        from repro.dse import ParameterSpace

        return ParameterSpace.from_dict({"grid": self.spec["grid"]})

    def _explore(self, cache):
        from repro.dse import ExplorationEngine

        return ExplorationEngine(cache=cache,
                                 jobs=self.spec["jobs"]).run(self._space())

    def _result(self, result, expect_hits: bool) -> SuiteResult:
        stats = result.stats
        expected = stats.cache_hits if expect_hits else stats.cache_misses
        if expected != stats.configurations:
            raise BenchmarkError(
                f"{self.name}: expected a fully "
                f"{'cached' if expect_hits else 'cold'} run, got "
                f"{stats.cache_hits} hits / {stats.cache_misses} misses "
                f"over {stats.configurations} configurations")
        fingerprint = {
            "configurations": stats.configurations,
            "infeasible": stats.infeasible,
            "model_version": result.model_version,
            "records_digest": fingerprint_digest(result.records),
        }
        return SuiteResult(units=float(stats.configurations),
                           fingerprint=fingerprint)

    def cleanup(self, state: Any) -> None:
        shutil.rmtree(state, ignore_errors=True)


class DseColdSuite(_DseSuite):
    """Exploration with an empty cache and empty pricing-stage memos:
    pure evaluation throughput, every pass as cold as a fresh process."""

    name = "dse_cold"
    spec = {"grid": _DSE_GRID, "jobs": 1}

    def prepare(self, profiler: PhaseProfiler) -> Any:
        from repro.core import pricing

        pricing.clear()
        return tempfile.mkdtemp(prefix="repro-bench-dse-cold-")

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        from repro.dse import ResultCache

        with profiler.phase("dse_cold;explore"):
            result = self._explore(ResultCache(state))
        return self._result(result, expect_hits=False)


class DseCachedSuite(_DseSuite):
    """The same exploration served entirely from a warm result cache."""

    name = "dse_cached"
    spec = {"grid": _DSE_GRID, "jobs": 1}

    def prepare(self, profiler: PhaseProfiler) -> Any:
        from repro.dse import ResultCache

        directory = tempfile.mkdtemp(prefix="repro-bench-dse-warm-")
        with profiler.phase("dse_cached;seed"):
            self._explore(ResultCache(directory))
        return directory

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        from repro.dse import ResultCache

        with profiler.phase("dse_cached;explore"):
            result = self._explore(ResultCache(state))
        return self._result(result, expect_hits=True)


class FaultsSuite(BenchSuite):
    """Fault-campaign throughput on the resilient driver, scenarios/second."""

    name = "faults"
    units = "scenarios"
    spec = {"scenarios": 11, "seed": 1, "kernel": "matmul",
            "host_mhz": 8.0, "iterations": 1, "bit_error_rate": 2e-5}

    def prepare(self, profiler: PhaseProfiler) -> Any:
        from repro.faults import build_campaign

        with profiler.phase("faults;build"):
            return build_campaign(
                self.spec["scenarios"], seed=self.spec["seed"],
                kernel=self.spec["kernel"], host_mhz=self.spec["host_mhz"],
                iterations=self.spec["iterations"],
                bit_error_rate=self.spec["bit_error_rate"])

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        from repro.faults import CampaignRunner

        with profiler.phase("faults;run"):
            result = CampaignRunner().run(state)
        payload = result.to_json_dict()
        fingerprint = {
            "outcomes": payload["outcomes"],
            "availability": payload["availability"],
            "digest": fingerprint_digest(payload),
        }
        return SuiteResult(units=float(len(state)), fingerprint=fingerprint)


class AnalysisSuite(BenchSuite):
    """Static-analysis throughput: programs fully linted per second."""

    name = "analysis"
    units = "programs"
    spec = {"programs": "builtin+parallel", "cores": 4}

    def prepare(self, profiler: PhaseProfiler) -> Any:
        # Import (and import-time lint) the program registries off the
        # clock.
        import repro.machine.parallel  # noqa: F401
        import repro.machine.programs  # noqa: F401

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        from repro.analysis.linter import lint_builtin_programs

        with profiler.phase("analysis;lint"):
            reports = lint_builtin_programs(cores=self.spec["cores"])
        fingerprint = {"programs": len(reports),
                       "findings": {report.name: len(report.findings)
                                    for report in reports}}
        return SuiteResult(units=float(len(reports)),
                           fingerprint=fingerprint)


class LearnSuite(BenchSuite):
    """Model-prediction throughput: configurations predicted per second.

    ``prepare`` builds the tiny labeled dataset and fits the decision
    tree off the clock; ``execute`` ranks every (corpus program,
    iteration context) pair through the fitted model.  The fingerprint
    pins the predicted labels, so a model or feature drift fails the
    bit-identical check before it reaches a regret report.
    """

    name = "learn"
    units = "predictions"
    spec = {"tiny": True, "kind": "tree", "contexts": [1, 8, 64],
            "sweep": 400}

    def prepare(self, profiler: PhaseProfiler) -> Any:
        from repro.learn.dataset import CORPUS, build_dataset, corpus_features
        from repro.learn.models import train_model

        with profiler.phase("learn;dataset"):
            dataset = build_dataset(tiny=self.spec["tiny"])
        with profiler.phase("learn;train"):
            fitted = train_model(dataset, kind=self.spec["kind"])
        with profiler.phase("learn;features"):
            queries = [(program, iterations,
                        corpus_features(program, iterations))
                       for program in sorted(CORPUS)
                       for iterations in self.spec["contexts"]]
        return fitted, queries

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        fitted, queries = state
        predictions: Dict[str, str] = {}
        with profiler.phase("learn;predict"):
            for _ in range(self.spec["sweep"]):
                for program, iterations, features in queries:
                    predictions[f"{program}/x{iterations}"] = \
                        fitted.predict(features)
        fingerprint = {
            "queries": len(queries),
            "sweep": self.spec["sweep"],
            "digest": fingerprint_digest(predictions),
        }
        return SuiteResult(units=float(len(queries) * self.spec["sweep"]),
                           fingerprint=fingerprint)


class ChaosSuite(BenchSuite):
    """Chaos-campaign throughput, in scenario requests served per second.

    ``execute`` runs the pinned fleet-fault campaign (clean, crash
    storm, fleet brownout, flapping, surge+brownout) against the pinned
    serving config with the resilience machinery armed.  The
    fingerprint pins every scenario's scorecard, so a drift anywhere in
    the breaker/hedging/overload/SLO paths fails the bit-identical
    check before it reaches a resilience report.
    """

    name = "chaos"
    units = "requests"
    spec = {"nodes": 4, "seed": 1, "chaos_seed": 1,
            "requests_per_scenario": 240, "scenarios": 5}

    def prepare(self, profiler: PhaseProfiler) -> Any:
        from repro.serve.chaos import (
            pinned_campaign_config,
            pinned_campaign_plans,
        )

        with profiler.phase("chaos;setup"):
            config = pinned_campaign_config(nodes=self.spec["nodes"],
                                            seed=self.spec["seed"])
            plans = pinned_campaign_plans()
        return config, plans

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        from repro.serve.chaos import run_campaign

        config, plans = state
        with profiler.phase("chaos;campaign"):
            result = run_campaign(config, plans,
                                  chaos_seed=self.spec["chaos_seed"])
        served = sum(run.scorecard["completed"] for run in result.runs)
        fingerprint = {
            "scenarios": len(result.runs),
            "served": served,
            "verdict": result.verdict,
            "digest": fingerprint_digest(result.to_json_dict()),
        }
        return SuiteResult(units=float(served), fingerprint=fingerprint)


class CapacitySuite(BenchSuite):
    """Analytic capacity-model throughput, in scenario evaluations/second.

    ``prepare`` builds and warms the model (kernel pricing and shape
    caches), then times one reference DES run of the pinned scenario
    off the clock; ``execute`` prices the whole pinned rate x fleet
    grid analytically.  Besides the usual bit-identical fingerprint,
    the suite enforces the fast path's reason to exist: one analytic
    evaluation of the reference scenario must be at least
    ``min_speedup`` x faster than its DES run.  The measured ratio
    sits around 150-200x; the pinned floor leaves headroom for noisy
    CI machines while still failing loudly if the fast path ever
    degenerates into something DES-shaped.
    """

    name = "capacity"
    units = "evaluations"
    spec = {"rates": [150.0, 250.0, 350.0, 450.0, 550.0, 650.0],
            "nodes": [2, 4, 6], "requests": 2000, "max_batch": 8,
            "sweep": 8,
            "reference": {"rate": 450.0, "nodes": 4, "seed": 7},
            "min_speedup": 50.0}

    def _scenarios(self):
        from repro.capacity.model import CapacityInputs

        return [CapacityInputs(arrival_rate=rate,
                               requests=self.spec["requests"],
                               nodes=nodes,
                               max_batch=self.spec["max_batch"])
                for nodes in self.spec["nodes"]
                for rate in self.spec["rates"]]

    def prepare(self, profiler: PhaseProfiler) -> Any:
        import time

        from repro.capacity.model import CapacityModel
        from repro.serve import AnalyticServiceBook, PoissonWorkload
        from repro.serve.engine import ServeConfig, ServeEngine

        with profiler.phase("capacity;warm"):
            book = AnalyticServiceBook()
            model = CapacityModel(book)
            scenarios = self._scenarios()
            model.predict(scenarios[0])
        reference = self.spec["reference"]
        with profiler.phase("capacity;des-reference"):
            config = ServeConfig(
                workload=PoissonWorkload(rate=reference["rate"],
                                         requests=self.spec["requests"],
                                         seed=reference["seed"],
                                         deadline_factor=None),
                nodes=reference["nodes"], seed=reference["seed"],
                book=book)
            start = time.perf_counter()
            ServeEngine(config).run()
            des_wall = time.perf_counter() - start
        return model, scenarios, des_wall

    def execute(self, state: Any, profiler: PhaseProfiler) -> SuiteResult:
        import time

        model, scenarios, des_wall = state
        predictions: Dict[str, Any] = {}
        stable = 0
        sweep = self.spec["sweep"]
        with profiler.phase("capacity;analytic"):
            start = time.perf_counter()
            for _ in range(sweep):
                stable = 0
                for inputs in scenarios:
                    prediction = model.predict(inputs)
                    stable += int(prediction.stable)
                    key = f"{inputs.nodes}n@{inputs.arrival_rate:.0f}rps"
                    predictions[key] = prediction.to_json_dict()
            analytic_wall = time.perf_counter() - start
        per_evaluation = analytic_wall / (len(scenarios) * sweep)
        speedup = des_wall / per_evaluation if per_evaluation > 0 \
            else float("inf")
        if speedup < self.spec["min_speedup"]:
            raise BenchmarkError(
                f"capacity: analytic evaluation is only {speedup:.1f}x "
                f"faster than the reference DES run "
                f"(floor {self.spec['min_speedup']:.0f}x)")
        fingerprint = {
            "evaluations": len(scenarios),
            "sweep": sweep,
            "stable": stable,
            "digest": fingerprint_digest(predictions),
        }
        return SuiteResult(units=float(len(scenarios) * sweep),
                           fingerprint=fingerprint)


#: Suite classes in report order.
SUITE_TYPES = (SimSuite, ServeSuite, DseColdSuite, DseCachedSuite,
               FaultsSuite, AnalysisSuite, LearnSuite, ChaosSuite,
               CapacitySuite)


def default_suites(names: Optional[List[str]] = None) -> List[BenchSuite]:
    """Instantiate the registered suites, optionally a named subset."""
    by_name = {suite_type.name: suite_type for suite_type in SUITE_TYPES}
    if names is None:
        return [suite_type() for suite_type in SUITE_TYPES]
    unknown = [name for name in names if name not in by_name]
    if unknown:
        raise BenchmarkError(
            f"unknown bench suites {unknown}; "
            f"available: {', '.join(by_name)}")
    return [by_name[name]() for name in names]
