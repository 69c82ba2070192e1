"""``repro.serve`` — the multi-accelerator offload serving runtime.

The paper couples one STM32-L476 host to one PULP cluster; this package
gangs a *fleet* of accelerator nodes behind one host runtime and drives
it from a stream of kernel requests, entirely as a seeded discrete-event
simulation on :mod:`repro.sim`:

* :mod:`repro.serve.workload` — seeded open-loop (Poisson, bursty MMPP)
  and closed-loop request generators plus JSON trace replay (and the
  surge wrapper chaos campaigns use to compress arrivals);
* :mod:`repro.serve.scheduler` — dispatch policies (FIFO,
  shortest-expected-service, EDF, power-cap throttling and the learned
  book's ``predicted``) with admission control and per-kernel batch
  coalescing;
* :mod:`repro.serve.archetype` — first-class node archetypes (host MCU,
  cluster size, operating point) and :class:`FleetSpec` compositions
  mixing them, with per-kernel routing;
* :mod:`repro.serve.fleet` — node lifecycle (idle/busy/rebooting/dead)
  with per-node fault plans and resilient-ladder recovery, plus the
  analytic service book pricing every request through the offload cost
  model;
* :mod:`repro.serve.resilience` — fleet-scope robustness: circuit
  breakers, retry budgets, hedged dispatch, health ejection, the
  overload/brownout ladder, and per-kernel SLO error budgets;
* :mod:`repro.serve.chaos` — fleet fault campaigns (crash storms,
  brownouts, flapping, arrival surges) scored into a resilience
  scorecard behind ``python -m repro chaos``;
* :mod:`repro.serve.metrics` — queueing statistics (latency percentiles,
  throughput, utilization, energy per request, deadline-miss and drop
  rates) and the fleet power timeline;
* :mod:`repro.serve.engine` — the :class:`ServeEngine` tying them
  together behind ``python -m repro serve``.

Everything is seeded and wall-clock free: the same configuration
reproduces bit-identical reports.
"""

from repro.serve.archetype import (
    DEFAULT_ARCHETYPE,
    FleetSpec,
    NodeArchetype,
)
from repro.serve.chaos import (
    ChaosCampaignResult,
    ChaosInjector,
    ChaosRun,
    build_scorecard,
    pinned_campaign_config,
    pinned_campaign_plans,
    run_campaign,
    run_scenario,
)
from repro.serve.engine import ServeConfig, ServeEngine, default_power_budget
from repro.serve.fleet import (
    AnalyticServiceBook,
    Fleet,
    Node,
    NodeState,
    ServiceBook,
    ServiceProfile,
)
from repro.serve.metrics import RequestRecord, ServeReport, percentile
from repro.serve.resilience import (
    AlertEvent,
    CircuitBreaker,
    HealthMonitor,
    OverloadController,
    ResilienceConfig,
    ResilienceRuntime,
    RetryBudget,
    SloPolicy,
    SloTracker,
)
from repro.serve.scheduler import Policy, Scheduler, SchedulerConfig
from repro.serve.workload import (
    ClosedLoopWorkload,
    MmppWorkload,
    PoissonWorkload,
    Request,
    SurgedWorkload,
    TraceWorkload,
    Workload,
)

__all__ = [
    "AlertEvent",
    "AnalyticServiceBook",
    "ChaosCampaignResult",
    "ChaosInjector",
    "ChaosRun",
    "CircuitBreaker",
    "ClosedLoopWorkload",
    "DEFAULT_ARCHETYPE",
    "Fleet",
    "FleetSpec",
    "HealthMonitor",
    "MmppWorkload",
    "Node",
    "NodeArchetype",
    "NodeState",
    "OverloadController",
    "percentile",
    "PoissonWorkload",
    "Policy",
    "Request",
    "RequestRecord",
    "ResilienceConfig",
    "ResilienceRuntime",
    "RetryBudget",
    "Scheduler",
    "SchedulerConfig",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "ServiceBook",
    "ServiceProfile",
    "SloPolicy",
    "SloTracker",
    "SurgedWorkload",
    "TraceWorkload",
    "Workload",
    "build_scorecard",
    "default_power_budget",
    "pinned_campaign_config",
    "pinned_campaign_plans",
    "run_campaign",
    "run_scenario",
]
