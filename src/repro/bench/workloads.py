"""Pinned benchmark workloads: one fixed spec per engine hot path.

Every suite is a :class:`BenchSuite` with a frozen ``spec`` (workload
knobs *including seeds*), an untimed :meth:`~BenchSuite.prepare` step
(building workloads, lowering kernels, seeding caches), and a timed
:meth:`~BenchSuite.execute` step that returns the work-unit count plus
a *deterministic fingerprint* of the engine's output.  The runner times
``execute`` alone and asserts the fingerprint is bit-identical across
repeats.

The registry covers the hot paths ``perfbench/`` does not time; its
``serve_drain``, ``dse_sweep`` and ``chaos_sweep`` workloads time the
serving drain, the cold exploration and the chaos campaign:

========== ============ ====================================================
suite      units        hot path
========== ============ ====================================================
sim        cycles       DES cluster replay of a lowered kernel loop
dse_cached configs      ``repro.dse`` exploration served from a warm cache
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

    def prepare(self) -> Any:
        """Build per-repeat state outside the timed window."""
        return None

    def execute(self, state: Any) -> SuiteResult:
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

    def prepare(self) -> Any:
        from repro.core import pricing
        from repro.core.system import HeterogeneousSystem
        from repro.kernels import kernel_by_name
        from repro.pulp.timing import kernel_op_streams

        system = HeterogeneousSystem()
        kernel = kernel_by_name(self.spec["kernel"])
        streams = kernel_op_streams(
            pricing.program(kernel), system.target, self.spec["cores"],
            cycle_cap=self.spec["cycle_cap"])
        dma_bytes = self.spec["dma_bytes"]
        return streams, [(0, 0, dma_bytes, True),
                         (0, 4096, dma_bytes, False)]

    def execute(self, state: Any) -> SuiteResult:
        from repro.pulp.cluster import Cluster

        streams, dma_jobs = state
        run = Cluster().run(streams, dma_jobs=dma_jobs)
        fingerprint = {
            "wall_cycles": run.wall_cycles,
            "conflict_rate": round(run.conflict_rate, 12),
            "barrier_count": run.barrier_count,
        }
        return SuiteResult(units=run.wall_cycles, fingerprint=fingerprint)


class DseCachedSuite(BenchSuite):
    """A 16-configuration exploration served entirely from a warm result
    cache."""

    name = "dse_cached"
    units = "configs"
    spec = {"grid": {"kernel": ["matmul"], "host_mhz": [2.0, 4.0, 8.0, 16.0],
                     "budget_mw": [5.0, 10.0],
                     "spi_mode": ["single", "quad"]},
            "jobs": 1}

    def _explore(self, directory: str):
        from repro.dse import ExplorationEngine, ParameterSpace, ResultCache

        space = ParameterSpace.from_dict({"grid": self.spec["grid"]})
        return ExplorationEngine(cache=ResultCache(directory),
                                 jobs=self.spec["jobs"]).run(space)

    def prepare(self) -> Any:
        directory = tempfile.mkdtemp(prefix="repro-bench-dse-warm-")
        self._explore(directory)
        return directory

    def execute(self, state: Any) -> SuiteResult:
        result = self._explore(state)
        stats = result.stats
        if stats.cache_hits != stats.configurations:
            raise BenchmarkError(
                f"{self.name}: expected a fully cached run, got "
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


class FaultsSuite(BenchSuite):
    """Fault-campaign throughput on the resilient driver, scenarios/second."""

    name = "faults"
    units = "scenarios"
    spec = {"scenarios": 11, "seed": 1, "kernel": "matmul",
            "host_mhz": 8.0, "iterations": 1, "bit_error_rate": 2e-5}

    def prepare(self) -> Any:
        from repro.faults import build_campaign

        return build_campaign(
            self.spec["scenarios"], seed=self.spec["seed"],
            kernel=self.spec["kernel"], host_mhz=self.spec["host_mhz"],
            iterations=self.spec["iterations"],
            bit_error_rate=self.spec["bit_error_rate"])

    def execute(self, state: Any) -> SuiteResult:
        from repro.faults import CampaignRunner

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

    def prepare(self) -> Any:
        # Import (and import-time lint) the program registries off the
        # clock.
        import repro.machine.parallel  # noqa: F401
        import repro.machine.programs  # noqa: F401

    def execute(self, state: Any) -> SuiteResult:
        from repro.analysis.linter import lint_builtin_programs

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

    def prepare(self) -> Any:
        from repro.learn.dataset import CORPUS, build_dataset, corpus_features
        from repro.learn.models import train_model

        dataset = build_dataset(tiny=self.spec["tiny"])
        fitted = train_model(dataset, kind=self.spec["kind"])
        queries = [(program, iterations,
                    corpus_features(program, iterations))
                   for program in sorted(CORPUS)
                   for iterations in self.spec["contexts"]]
        return fitted, queries

    def execute(self, state: Any) -> SuiteResult:
        fitted, queries = state
        predictions: Dict[str, str] = {}
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

    def prepare(self) -> Any:
        import time

        from repro.capacity.model import CapacityModel
        from repro.serve import AnalyticServiceBook, PoissonWorkload
        from repro.serve.engine import ServeConfig, ServeEngine

        book = AnalyticServiceBook()
        model = CapacityModel(book)
        scenarios = self._scenarios()
        model.predict(scenarios[0])
        reference = self.spec["reference"]
        config = ServeConfig(
            workload=PoissonWorkload(rate=reference["rate"],
                                     requests=self.spec["requests"],
                                     seed=reference["seed"],
                                     deadline_factor=None),
            nodes=reference["nodes"], seed=reference["seed"], book=book)
        start = time.perf_counter()
        ServeEngine(config).run()
        des_wall = time.perf_counter() - start
        return model, scenarios, des_wall

    def execute(self, state: Any) -> SuiteResult:
        import time

        model, scenarios, des_wall = state
        predictions: Dict[str, Any] = {}
        stable = 0
        sweep = self.spec["sweep"]
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
SUITE_TYPES = (SimSuite, DseCachedSuite, FaultsSuite, AnalysisSuite,
               LearnSuite, CapacitySuite)


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
