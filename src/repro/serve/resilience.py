"""Client-side fleet robustness: breakers, budgets, overload, SLOs.

The serving engine's single-node defences (the per-node escalation
ladder of :mod:`repro.serve.fleet`) handle *independent* faults.  This
module adds the fleet-scope machinery a host runtime needs when faults
are *correlated* — crash storms, brownouts, flapping nodes, arrival
surges (see :class:`repro.faults.plan.FleetPlan`):

==========================  ================================================
mechanism                   role
==========================  ================================================
:class:`CircuitBreaker`     per-node closed → open → half-open gate on
                            consecutive ``ServiceOutcome`` failures; an
                            open breaker steers dispatches away from a
                            node that keeps eating batches
:class:`RetryBudget`        fleet-wide cap on requeue-driven retry
                            amplification: every completion earns
                            fractional retry tokens, exhaustion sheds
                            instead of retrying forever
hedged dispatch             (engine-side) a duplicate of an overdue
                            batch on a second node; first copy to finish
                            wins, the loser is counted as hedging waste
:class:`HealthMonitor`      periodic probes ejecting flapping nodes
                            after consecutive down observations and
                            readmitting them after consecutive up ones
:class:`OverloadController` brownout QoS ladder — fast tier → eco tier
                            → host assist → shed — escalated under
                            sustained queue growth or power-gate
                            pressure, with hysteresis on relief
:class:`SloTracker`         per-kernel latency/availability SLOs with
                            run-scope error-budget burn and an
                            ``alerts.log``-style event stream
==========================  ================================================

Everything is deterministic: state advances only on engine events and
simulated-time probes, so chaos campaigns rerun bit-identically.  When
``ServeConfig.resilience`` is ``None`` the engine never touches this
module and behaves exactly as before — a chaos run with an empty plan
is bit-identical to a plain serve run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError

#: The overload ladder, in escalation order (level == list index).
OVERLOAD_LEVELS = ("normal", "eco", "host-assist", "shed")


@dataclass(frozen=True)
class SloPolicy:
    """Per-kernel service-level objectives.

    - ``latency_factor``: a request meets its latency SLO when its
      end-to-end latency is at most ``latency_factor`` times the
      cost-model estimate of its warm fast-tier service time;
    - ``latency_objective``: fraction of completed requests that must
      meet the latency SLO (the error budget is the complement);
    - ``availability_objective``: fraction of arrivals that must
      complete (drops and sheds burn this budget);
    - ``min_samples``: per-kernel observation floor before burn alerts
      fire (avoids paging on the first unlucky request).
    """

    latency_factor: float = 50.0
    latency_objective: float = 0.95
    availability_objective: float = 0.999
    min_samples: int = 20

    def __post_init__(self) -> None:
        if self.latency_factor <= 0:
            raise ConfigurationError(
                f"latency factor must be > 0, got {self.latency_factor}")
        for name in ("latency_objective", "availability_objective"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigurationError(
                    f"{name} must be in (0, 1), got {value}")
        if self.min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {self.min_samples}")


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the fleet robustness machinery (all deterministic).

    ==========================  ============================================
    knob                        meaning
    ==========================  ============================================
    ``breaker_failures``        consecutive died outcomes that open a
                                node's breaker
    ``breaker_cooldown_s``      open time before the half-open probe
    ``retry_budget``            base fleet-wide retry tokens
    ``retry_ratio``             extra tokens earned per completed request
    ``hedging``                 enable hedged dispatch of overdue batches
    ``hedge_margin_s``          slack past the deadline estimate before a
                                hedge is issued
    ``health_interval_s``       probe period (0 disables the monitor)
    ``eject_after``             consecutive down probes before ejection
    ``readmit_after``           consecutive up probes before readmission
    ``queue_high``              queue depth counting as overload pressure
    ``queue_low``               queue depth counting as relief (and the
                                shed watermark)
    ``overload_patience``       consecutive pressure (relief) dispatcher
                                wakes before escalating (de-escalating)
    ``backpressure_s``          extra think time signaled to closed-loop
                                clients per overload level
    ``slo``                     the :class:`SloPolicy`
    ==========================  ============================================
    """

    breaker_failures: int = 3
    breaker_cooldown_s: float = 0.05
    retry_budget: int = 16
    retry_ratio: float = 0.2
    hedging: bool = True
    hedge_margin_s: float = 0.005
    health_interval_s: float = 0.005
    eject_after: int = 2
    readmit_after: int = 3
    queue_high: int = 24
    queue_low: int = 6
    overload_patience: int = 4
    backpressure_s: float = 0.002
    slo: SloPolicy = field(default_factory=SloPolicy)

    def __post_init__(self) -> None:
        if self.breaker_failures < 1:
            raise ConfigurationError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}")
        if self.breaker_cooldown_s < 0 or self.hedge_margin_s < 0 \
                or self.health_interval_s < 0 or self.backpressure_s < 0:
            raise ConfigurationError("resilience timings must be >= 0")
        if self.retry_budget < 0 or self.retry_ratio < 0:
            raise ConfigurationError("retry budget/ratio must be >= 0")
        if self.eject_after < 1 or self.readmit_after < 1:
            raise ConfigurationError("eject/readmit thresholds must be >= 1")
        if not 0 <= self.queue_low < self.queue_high:
            raise ConfigurationError(
                f"need 0 <= queue_low < queue_high, got "
                f"{self.queue_low}/{self.queue_high}")
        if self.overload_patience < 1:
            raise ConfigurationError(
                f"overload_patience must be >= 1, got "
                f"{self.overload_patience}")


class CircuitBreaker:
    """Closed → open → half-open breaker over one node's outcomes."""

    def __init__(self, config: ResilienceConfig):
        self._config = config
        self.state = "closed"
        self.consecutive_failures = 0
        self.trips = 0
        self.opened_at = 0.0
        self._probe_out = False

    def allows(self, now: float) -> bool:
        """Whether a dispatch to the node is allowed at *now*."""
        if self.state == "open":
            if now >= self.opened_at + self._config.breaker_cooldown_s:
                self.state = "half-open"
                self._probe_out = False
        if self.state == "half-open":
            return not self._probe_out
        return self.state == "closed"

    def note_dispatch(self) -> None:
        """A dispatch went out (marks the half-open probe in flight)."""
        if self.state == "half-open":
            self._probe_out = True

    def record_failure(self, now: float) -> bool:
        """A died outcome; returns True when this trips the breaker."""
        self.consecutive_failures += 1
        tripped = (self.state == "half-open"
                   or (self.state == "closed" and self.consecutive_failures
                       >= self._config.breaker_failures))
        if tripped:
            self.state = "open"
            self.opened_at = now
            self.trips += 1
            self.consecutive_failures = 0
            self._probe_out = False
        return tripped

    def record_success(self) -> None:
        """A successful outcome closes a half-open breaker."""
        self.consecutive_failures = 0
        if self.state == "half-open":
            self.state = "closed"
            self._probe_out = False


class RetryBudget:
    """Fleet-wide cap on requeue-driven retry amplification."""

    def __init__(self, config: ResilienceConfig):
        self._config = config
        self.spent = 0
        self.denied = 0

    def allowance(self, completed: int) -> float:
        """Tokens available after *completed* successful requests."""
        return self._config.retry_budget \
            + self._config.retry_ratio * completed

    def allow(self, requests: int, completed: int) -> bool:
        """Spend *requests* tokens if the budget covers them."""
        if self.spent + requests <= self.allowance(completed):
            self.spent += requests
            return True
        self.denied += requests
        return False


class HealthMonitor:
    """Consecutive-probe ejection/readmission of flapping nodes."""

    def __init__(self, config: ResilienceConfig):
        self._config = config
        self.ejected: Dict[str, bool] = {}
        self._down_streak: Dict[str, int] = {}
        self._up_streak: Dict[str, int] = {}
        self.ejections = 0
        self.readmissions = 0

    def observe(self, name: str, down: bool) -> Optional[str]:
        """One probe observation; returns ``"ejected"`` / ``"readmitted"``
        on a state change."""
        if down:
            self._down_streak[name] = self._down_streak.get(name, 0) + 1
            self._up_streak[name] = 0
            if not self.ejected.get(name) \
                    and self._down_streak[name] >= self._config.eject_after:
                self.ejected[name] = True
                self.ejections += 1
                return "ejected"
        else:
            self._up_streak[name] = self._up_streak.get(name, 0) + 1
            self._down_streak[name] = 0
            if self.ejected.get(name) \
                    and self._up_streak[name] >= self._config.readmit_after:
                self.ejected[name] = False
                self.readmissions += 1
                return "readmitted"
        return None

    def usable(self, name: str) -> bool:
        """Whether the node is currently admitted."""
        return not self.ejected.get(name, False)


class OverloadController:
    """The brownout QoS ladder with patience/hysteresis.

    Pressure (queue above the high watermark, or a power-gate deferral)
    escalates one level after ``overload_patience`` consecutive
    observations; relief (queue below the low watermark) de-escalates
    the same way.  Levels index :data:`OVERLOAD_LEVELS`.
    """

    def __init__(self, config: ResilienceConfig):
        self._config = config
        self.level = 0
        self.peak_level = 0
        self.escalations = 0
        self._pressure = 0
        self._relief = 0

    def observe(self, queue_depth: int) -> Optional[int]:
        """One dispatcher wake; returns the new level on a change."""
        if queue_depth > self._config.queue_high:
            return self._note_pressure()
        if queue_depth < self._config.queue_low:
            self._pressure = 0
            self._relief += 1
            if self.level > 0 \
                    and self._relief >= self._config.overload_patience:
                self._relief = 0
                self.level -= 1
                return self.level
        else:
            self._pressure = 0
            self._relief = 0
        return None

    def note_deferral(self) -> Optional[int]:
        """A power-gate deferral counts as overload pressure."""
        return self._note_pressure()

    def _note_pressure(self) -> Optional[int]:
        self._relief = 0
        self._pressure += 1
        if self.level < len(OVERLOAD_LEVELS) - 1 \
                and self._pressure >= self._config.overload_patience:
            self._pressure = 0
            self.level += 1
            self.escalations += 1
            self.peak_level = max(self.peak_level, self.level)
            return self.level
        return None

    @property
    def level_name(self) -> str:
        """The current ladder rung's name."""
        return OVERLOAD_LEVELS[self.level]


@dataclass(frozen=True)
class AlertEvent:
    """One line of the ``alerts.log``-style event stream."""

    t_s: float
    severity: str  # "info" | "warn" | "page"
    source: str    # "slo" | "breaker" | "health" | "overload"
    subject: str   # kernel or node name, or the ladder rung
    message: str

    def render(self) -> str:
        """The log line."""
        return (f"t={self.t_s:.6f} {self.severity:<4} "
                f"{self.source}:{self.subject} {self.message}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        return {"t_s": round(self.t_s, 9), "severity": self.severity,
                "source": self.source, "subject": self.subject,
                "message": self.message}


class _KernelSlo:
    """Running latency/availability tallies for one kernel."""

    __slots__ = ("completed", "violations", "dropped", "alerted")

    def __init__(self):
        self.completed = 0
        self.violations = 0
        self.dropped = 0
        #: (objective, threshold) keys that have alerted so far.
        self.alerted: set = set()

    @property
    def samples(self) -> int:
        return self.completed + self.dropped


class SloTracker:
    """Per-kernel SLO error budgets with run-scope burn.

    Burn is the consumed fraction of the error budget: a latency burn of
    1.0 means exactly the allowed share of requests missed the latency
    SLO; above 1.0 the budget is exhausted.  Alerts fire once per
    (kernel, objective, threshold) — ``warn`` at half the budget,
    ``page`` at exhaustion — only after ``min_samples`` observations.
    """

    THRESHOLDS = ((1.0, "page"), (0.5, "warn"))

    def __init__(self, policy: SloPolicy):
        self.policy = policy
        self._kernels: Dict[str, _KernelSlo] = {}
        self.alerts: List[AlertEvent] = []

    def _slot(self, kernel: str) -> _KernelSlo:
        slot = self._kernels.get(kernel)
        if slot is None:
            slot = self._kernels[kernel] = _KernelSlo()
        return slot

    def record_completion(self, kernel: str, latency_s: float,
                          estimate_s: float, now: float) -> None:
        """One completed request (latency vs its SLO target)."""
        slot = self._slot(kernel)
        slot.completed += 1
        if latency_s > self.policy.latency_factor * estimate_s:
            slot.violations += 1
        self._check(kernel, slot, now)

    def record_drop(self, kernel: str, now: float) -> None:
        """One arrival that will never complete (burned availability)."""
        slot = self._slot(kernel)
        slot.dropped += 1
        self._check(kernel, slot, now)

    def latency_burn(self, kernel: str) -> float:
        """Latency error-budget burn for *kernel* (0 with no samples)."""
        slot = self._kernels.get(kernel)
        if slot is None or slot.completed == 0:
            return 0.0
        share = slot.violations / slot.completed
        return share / (1.0 - self.policy.latency_objective)

    def availability_burn(self, kernel: str) -> float:
        """Availability error-budget burn for *kernel*."""
        slot = self._kernels.get(kernel)
        if slot is None or slot.samples == 0:
            return 0.0
        share = slot.dropped / slot.samples
        return share / (1.0 - self.policy.availability_objective)

    def worst_burn(self) -> float:
        """The highest burn across every kernel and both objectives."""
        worst = 0.0
        for kernel in self._kernels:
            worst = max(worst, self.latency_burn(kernel),
                        self.availability_burn(kernel))
        return worst

    def _check(self, kernel: str, slot: _KernelSlo, now: float) -> None:
        if slot.samples < self.policy.min_samples:
            return
        alerted = slot.alerted
        if len(alerted) == 2 * len(self.THRESHOLDS):
            return  # both objectives alerted at every threshold
        for objective, burn in (("latency", self.latency_burn(kernel)),
                                ("availability",
                                 self.availability_burn(kernel))):
            for threshold, severity in self.THRESHOLDS:
                key = (objective, threshold)
                if burn >= threshold and key not in alerted:
                    alerted.add(key)
                    self.alerts.append(AlertEvent(
                        t_s=now, severity=severity, source="slo",
                        subject=kernel,
                        message=(f"{objective} budget burn "
                                 f"{burn:.2f} >= {threshold:g}")))
                    break  # the page implies the warn

    def summary(self) -> Dict[str, object]:
        """JSON-safe per-kernel tallies + burns."""
        kernels = {}
        for kernel in sorted(self._kernels):
            slot = self._kernels[kernel]
            kernels[kernel] = {
                "completed": slot.completed,
                "latency_violations": slot.violations,
                "dropped": slot.dropped,
                "latency_burn": round(self.latency_burn(kernel), 6),
                "availability_burn": round(self.availability_burn(kernel), 6),
            }
        return {"kernels": kernels,
                "worst_burn": round(self.worst_burn(), 6),
                "policy": {
                    "latency_factor": self.policy.latency_factor,
                    "latency_objective": self.policy.latency_objective,
                    "availability_objective":
                        self.policy.availability_objective,
                }}


class ResilienceRuntime:
    """Engine-side aggregate of every robustness mechanism.

    Owned by :class:`~repro.serve.engine.ServeEngine` when
    ``ServeConfig.resilience`` is set; ``None`` otherwise (the engine
    then never consults it, keeping plain runs bit-identical).
    """

    def __init__(self, config: ResilienceConfig):
        self.config = config
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.retry = RetryBudget(config)
        self.health = HealthMonitor(config)
        self.overload = OverloadController(config)
        self.slo = SloTracker(config.slo)
        self.alerts: List[AlertEvent] = []
        self.breaker_trips = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_covered_failures = 0
        self.hedge_waste_time_s = 0.0
        self.hedge_waste_energy_j = 0.0
        self.eco_degrades = 0
        self.sheds = 0
        self.backpressure_events = 0
        self.completed = 0
        self._probe_handle: Optional[int] = None

    # -- breakers ---------------------------------------------------------------

    def breaker(self, name: str) -> CircuitBreaker:
        """The (lazily created) breaker of node *name*."""
        breaker = self.breakers.get(name)
        if breaker is None:
            breaker = self.breakers[name] = CircuitBreaker(self.config)
        return breaker

    def node_usable(self, name: str, now: float) -> bool:
        """Breaker allows a dispatch and health has not ejected it.

        One node; :meth:`usable` is the same test over a whole scan.
        """
        return self.health.usable(name) and self.breaker(name).allows(now)

    def usable(self, nodes: List, now: float) -> List:
        """The nodes of *nodes* a dispatch may go to at *now*, in order.

        The engine's pick-node filter, one call per scan: health must
        not have ejected the node and its breaker must allow a dispatch.
        The breaker of every node health admits is consulted, in order,
        because ``allows`` turns an open breaker whose cooldown is over
        half-open.  Only a closed breaker (or none yet: the node has
        never failed) answers without the call; it always allows.
        """
        ejected = self.health.ejected
        breakers = self.breakers
        usable = []
        for node in nodes:
            name = node.name
            if ejected.get(name):
                continue
            breaker = breakers.get(name)
            if breaker is None or breaker.state == "closed" \
                    or breaker.allows(now):
                usable.append(node)
        return usable

    def record_failure(self, name: str, now: float) -> None:
        """Feed a died outcome to the node's breaker (+ alert on trip)."""
        if self.breaker(name).record_failure(now):
            self.breaker_trips += 1
            self.alert(now, "warn", "breaker", name, "breaker opened")

    # -- health probing ---------------------------------------------------------

    def start(self, engine) -> None:
        """Arm the periodic health probe on the engine's simulator."""
        if self.config.health_interval_s > 0:
            self._schedule_probe(engine)

    def stop(self, simulator) -> None:
        """Cancel the pending probe (called from the drain hook)."""
        if self._probe_handle is not None:
            simulator.cancel(self._probe_handle)
            self._probe_handle = None

    def _schedule_probe(self, engine) -> None:
        self._probe_handle = engine.simulator.schedule(
            self.config.health_interval_s, self._probe, engine)

    def _probe(self, engine) -> None:
        now = engine.simulator.now
        for node in engine.fleet.nodes:
            change = self.health.observe(node.name, not node.alive)
            if change is not None:
                self.alert(now, "info", "health", node.name, change)
        self._schedule_probe(engine)
        if engine.scheduler.queue:
            # Progress guarantee: breaker cooldowns and readmissions
            # change dispatchability without an engine event, so a
            # waiting queue gets the dispatcher re-evaluated each probe.
            engine.kick()

    # -- events -----------------------------------------------------------------

    def alert(self, now: float, severity: str, source: str, subject: str,
              message: str) -> None:
        """Append one event to the alert stream."""
        self.alerts.append(AlertEvent(t_s=now, severity=severity,
                                      source=source, subject=subject,
                                      message=message))

    def all_alerts(self) -> List[AlertEvent]:
        """Runtime + SLO alerts merged in time order (stable)."""
        merged = self.alerts + self.slo.alerts
        merged.sort(key=lambda a: a.t_s)
        return merged

    # -- reporting --------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """The JSON-safe resilience section of a :class:`ServeReport`."""
        breakers = {
            name: {"state": breaker.state, "trips": breaker.trips}
            for name, breaker in sorted(self.breakers.items())
            if breaker.trips or breaker.state != "closed"
        }
        return {
            "breakers": {
                "trips": self.breaker_trips,
                "by_node": breakers,
            },
            "retry_budget": {
                "base": self.config.retry_budget,
                "ratio": self.config.retry_ratio,
                "spent": self.retry.spent,
                "denied": self.retry.denied,
            },
            "hedging": {
                "issued": self.hedges,
                "wins": self.hedge_wins,
                "covered_failures": self.hedge_covered_failures,
                "waste_time_s": round(self.hedge_waste_time_s, 9),
                "waste_energy_j": round(self.hedge_waste_energy_j, 12),
            },
            "health": {
                "ejections": self.health.ejections,
                "readmissions": self.health.readmissions,
            },
            "overload": {
                "level": self.overload.level,
                "level_name": self.overload.level_name,
                "peak_level": self.overload.peak_level,
                "escalations": self.overload.escalations,
                "eco_degrades": self.eco_degrades,
                "sheds": self.sheds,
                "backpressure_events": self.backpressure_events,
            },
            "slo": self.slo.summary(),
            "alerts": [alert.to_dict() for alert in self.all_alerts()],
        }
