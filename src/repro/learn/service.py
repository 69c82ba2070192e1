"""The ``predicted`` serving backend: model-driven operating points.

:class:`PredictedServiceBook` closes the loop from
:mod:`repro.learn.models` back into :mod:`repro.serve`.  For every
kernel the fleet serves, the book

1. maps the Table-I benchmark to its corpus twin (the inverse of
   :data:`repro.learn.dataset.CORPUS`), computes the twin's static
   feature vector at the book's pinned iteration context, and asks the
   trained model for a configuration label;
2. if the model is confident, prices the *fast* tier at the predicted
   operating point — the predicted envelope budget, cluster size and
   schedule — through the exact same offload stack the analytic book
   uses;
3. otherwise falls back to the analytic fast-tier point.

Every decision is counted on the live :mod:`repro.obs` hub:
``learn.predictions`` (model-priced kernels), ``learn.fallbacks``
(low confidence / unknown kernel / unpriceable prediction).  The *eco*
tier and the host fallback stay analytic — the power-cap ladder must
keep its calibrated meaning regardless of the model.

The book pairs with the built-in ``predicted`` dispatch policy
(:attr:`repro.serve.scheduler.Policy.PREDICTED`): SJF's
shortest-expected-service order, read through this book's learned
operating points.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.system import HeterogeneousSystem
from repro.errors import ConfigurationError
from repro.learn.dataset import CORPUS, label_knobs
from repro.learn.models import FittedModel, load_model
from repro.serve.fleet import AnalyticServiceBook, ServiceProfile
from repro.units import mw

#: Minimum model confidence (ranked-first probability mass) before the
#: book trusts a prediction over the analytic operating point.
DEFAULT_CONFIDENCE = 0.5

#: Iteration context the per-kernel prediction is made at.  The book
#: prices a kernel once per tier, so one context must stand in for the
#: whole request stream; 8 is the pinned grid's midpoint.
DEFAULT_CONTEXT_ITERATIONS = 8

#: Table-I benchmark -> corpus twin (first corpus program per twin, in
#: corpus-name order — deterministic).
BENCHMARK_TWINS: Dict[str, str] = {}
for _program in sorted(CORPUS):
    BENCHMARK_TWINS.setdefault(CORPUS[_program][1], _program)


def predictor_from_file(path) -> FittedModel:
    """Load a trained model for serving, checking schema compatibility."""
    from repro.analysis import FEATURES_VERSION

    fitted = load_model(path)
    if fitted.features_version != FEATURES_VERSION:
        raise ConfigurationError(
            f"model {path} was trained on feature schema "
            f"v{fitted.features_version}, but this build extracts "
            f"v{FEATURES_VERSION} — rebuild the dataset and retrain")
    return fitted


class PredictedServiceBook(AnalyticServiceBook):
    """Prices the fast tier at the model's predicted operating point."""

    def __init__(self, model: FittedModel,
                 confidence: float = DEFAULT_CONFIDENCE,
                 context_iterations: int = DEFAULT_CONTEXT_ITERATIONS,
                 host_mhz: float = 8.0):
        if not 0.0 <= confidence <= 1.0:
            raise ConfigurationError(
                f"confidence threshold must be in [0, 1]: {confidence}")
        if context_iterations < 1:
            raise ConfigurationError(
                f"context iterations must be >= 1: {context_iterations}")
        super().__init__(host_mhz=host_mhz)
        self.model = model
        self.confidence = confidence
        self.context_iterations = context_iterations
        #: kernel -> chosen label (None = analytic fallback), for
        #: reports and tests; one entry per priced kernel.
        self.decisions: Dict[str, Optional[str]] = {}
        self._systems: Dict[int, HeterogeneousSystem] = {}

    # -- the decision ------------------------------------------------------------

    def _decide(self, kernel_name: str) -> Optional[Dict[str, object]]:
        """Predicted knobs for *kernel_name*, or None to stay analytic."""
        from repro.learn.dataset import corpus_features
        from repro.obs import get_telemetry

        hub = get_telemetry()
        program = BENCHMARK_TWINS.get(kernel_name)
        if program is None:
            hub.count("learn.fallbacks", unit="decisions")
            self.decisions[kernel_name] = None
            return None
        features = corpus_features(program, self.context_iterations)
        ranked = self.model.ranked(features)
        label, confidence = ranked[0]
        if confidence < self.confidence:
            hub.count("learn.fallbacks", unit="decisions")
            self.decisions[kernel_name] = None
            return None
        try:
            knobs = label_knobs(label)
        except ConfigurationError:
            hub.count("learn.fallbacks", unit="decisions")
            self.decisions[kernel_name] = None
            return None
        hub.count("learn.predictions", unit="decisions")
        self.decisions[kernel_name] = label
        return knobs

    def _system_for(self, cluster_size: int) -> HeterogeneousSystem:
        system = self._systems.get(cluster_size)
        if system is None:
            system = HeterogeneousSystem(threads=cluster_size)
            self._systems[cluster_size] = system
        return system

    # -- pricing -----------------------------------------------------------------

    def _build(self, kernel_name: str, tier: str) -> ServiceProfile:
        from repro.obs import Telemetry, use_telemetry

        knobs = self._decide(kernel_name) if tier == "fast" else None
        with use_telemetry(Telemetry(enabled=False)):
            if knobs is None:
                return self._price(kernel_name, tier)
            try:
                return self._price(
                    kernel_name, tier,
                    budget=mw(knobs["budget_mw"]),
                    system=self._system_for(knobs["cluster_size"]),
                    double_buffered=knobs["double_buffered"])
            except ConfigurationError:
                # The predicted point does not close an envelope here
                # (e.g. a different host clock than the training grid):
                # serve analytically rather than fail the fleet.
                self.decisions[kernel_name] = None
        from repro.obs import get_telemetry

        get_telemetry().count("learn.infeasible", unit="decisions")
        with use_telemetry(Telemetry(enabled=False)):
            return self._price(kernel_name, tier)
