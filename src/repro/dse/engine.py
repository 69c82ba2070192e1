"""The exploration engine: cache lookup, fan-out evaluation, telemetry.

:class:`ExplorationEngine` turns a :class:`~repro.dse.space.ParameterSpace`
into a list of evaluation records:

1. expand the space into canonical configurations (deterministic order);
2. look every configuration up in the :class:`~repro.dse.cache.ResultCache`
   under the current model version;
3. fan the misses out across a ``ProcessPoolExecutor`` (``jobs > 1``) or
   evaluate them in-process (``jobs == 1`` — the deterministic fallback
   that needs no fork support);
4. persist fresh records to the cache and reassemble everything in
   configuration order, so parallel, serial and fully cached runs return
   bit-identical results.

Progress is reported through the active :mod:`repro.obs` hub: a
``dse.run`` span around the whole exploration, a ``dse.evaluate`` span
around the miss batch, ``dse.cache.hits`` / ``dse.cache.misses`` /
``dse.evaluations`` counters and a streaming ``dse.progress`` gauge.
"""

from __future__ import annotations

import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs import get_telemetry, monotonic

from repro.dse import evaluate as _evaluate
from repro.dse.cache import ResultCache
from repro.dse.space import Configuration, ParameterSpace


@dataclass(frozen=True)
class ExplorationStats:
    """Bookkeeping of one engine run."""

    configurations: int
    cache_hits: int
    cache_misses: int
    evaluated: int
    infeasible: int
    jobs: int
    elapsed_s: float

    @property
    def hit_rate(self) -> float:
        """Fraction of configurations served from the cache."""
        if self.configurations == 0:
            return 0.0
        return self.cache_hits / self.configurations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "configurations": self.configurations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "evaluated": self.evaluated,
            "infeasible": self.infeasible,
            "jobs": self.jobs,
            "elapsed_s": self.elapsed_s,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ExplorationResult:
    """Everything one exploration produced, in configuration order."""

    spec: Dict[str, Any]
    model_version: str
    records: List[Dict[str, Any]]
    stats: ExplorationStats

    @property
    def feasible_records(self) -> List[Dict[str, Any]]:
        """Records of points where the offload was actually possible."""
        return [r for r in self.records if r["feasible"]]


class ExplorationEngine:
    """High-throughput evaluator over a declarative parameter space."""

    def __init__(self, cache: Optional[ResultCache] = None, jobs: int = 1):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.cache = cache
        self.jobs = jobs

    def run(self, space: ParameterSpace) -> ExplorationResult:
        """Evaluate every configuration of *space*; cached where possible."""
        model_version = _evaluate.MODEL_VERSION
        configs = space.expand()
        hub = get_telemetry()
        started = monotonic()
        by_hash: Dict[str, Dict[str, Any]] = {}
        misses: List[Configuration] = []
        with hub.timed("dse.run", "dse", total=len(configs),
                       jobs=self.jobs):
            for config in configs:
                cached = (self.cache.get(config.hash, model_version)
                          if self.cache is not None else None)
                if cached is not None:
                    by_hash[config.hash] = cached
                    hub.count("dse.cache.hits")
                else:
                    misses.append(config)
                    hub.count("dse.cache.misses")
            fresh = self._evaluate_all(misses, model_version, hub)
            for record in fresh:
                by_hash[record["config_hash"]] = record
                if self.cache is not None:
                    self.cache.put(record)
        records = [by_hash[config.hash] for config in configs]
        stats = ExplorationStats(
            configurations=len(configs),
            cache_hits=len(configs) - len(misses),
            cache_misses=len(misses),
            evaluated=len(misses),
            infeasible=sum(1 for r in records if not r["feasible"]),
            jobs=self.jobs,
            elapsed_s=monotonic() - started,
        )
        return ExplorationResult(spec=space.to_dict(),
                                 model_version=model_version,
                                 records=records, stats=stats)

    def _evaluate_all(self, misses: List[Configuration], model_version: str,
                      hub) -> List[Dict[str, Any]]:
        """Evaluate the cache misses, in parallel when it pays off."""
        if not misses:
            return []
        worker = functools.partial(_evaluate.evaluate_config,
                                   model_version=model_version)
        results: List[Dict[str, Any]] = []
        with hub.timed("dse.evaluate", "dse", count=len(misses)):
            if self.jobs == 1 or len(misses) == 1:
                for index, config in enumerate(misses):
                    results.append(worker(config))
                    hub.count("dse.evaluations")
                    hub.gauge("dse.progress", (index + 1) / len(misses))
            else:
                workers = min(self.jobs, len(misses))
                chunk = max(1, len(misses) // (4 * workers))
                with ProcessPoolExecutor(max_workers=workers) as executor:
                    for index, record in enumerate(
                            executor.map(worker, misses,
                                         chunksize=chunk)):
                        results.append(record)
                        hub.count("dse.evaluations")
                        hub.gauge("dse.progress",
                                  (index + 1) / len(misses))
        return results
