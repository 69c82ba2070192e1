"""The accelerator fleet: service pricing and node lifecycle.

**Service pricing.**  The serving simulation never pushes bytes through
the wire protocol per request — at hundreds of requests per run that
would dominate wall time without changing the model.  Instead an
:class:`AnalyticServiceBook` prices each kernel once per *service tier*
through the staged pipeline a design-space point uses
(:mod:`repro.core.pricing`: the memoized ``characterize`` and
``operating_point`` stages, then the
:class:`~repro.core.offload.OffloadCostModel` latency/energy), and the
fleet replays those per-phase costs per request.  Serving never asks
for the functional ``verify`` stage.  Two tiers exist:

* ``fast`` — the paper's 10 mW per-node envelope point;
* ``eco``  — a throttled envelope point (lower per-node power budget,
  lower frequency/voltage), used by the power-cap scheduler when the
  fast point does not fit under the fleet budget.

**Node lifecycle.**  A :class:`Node` is a discrete-event process:
``idle -> busy -> idle`` on the happy path, with a per-node
:class:`~repro.faults.plan.FaultPlan` injected through a seeded
:class:`~repro.faults.injector.FaultInjector`.  Faults replay the
resilient driver's escalation ladder at fleet granularity: a failed
attempt is retried (re-arm), then the node reboots (losing its resident
binary), and a third failure marks the node **dead** — its batch is
requeued by the engine, never silently lost.  A brownout plan droops the
node's clock for the whole run (compute stretches by ``1/droop``).

The :class:`PowerTracker` maintains the fleet's piecewise-constant power
draw (host + every node) so the scheduler can gate dispatches against a
budget and reports can plot the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import pricing
from repro.core.envelope import DEFAULT_BUDGET, PowerEnvelopeSolver
from repro.core.system import HeterogeneousSystem
from repro.errors import ConfigurationError, Interrupt
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.resilient import RetryPolicy
from repro.kernels import kernel_by_name
from repro.power.activity import ActivityProfile
from repro.serve.workload import Request
from repro.sim.engine import Simulator, Timeout
from repro.units import mhz, mw, ordered_sum

import enum

#: Per-node envelope budgets of the two service tiers.
TIER_BUDGETS: Dict[str, float] = {"fast": DEFAULT_BUDGET, "eco": mw(6.5)}

#: The resilient ladder replayed at fleet granularity (then: node dead).
LADDER = ("initial", "re-arm", "reboot")

#: The ladder's boot timeout and watchdog: the resilient runtime's
#: defaults, which ``capacity.corrections.fault_effect`` prices too.
_RETRY = RetryPolicy()


@dataclass(frozen=True)
class ServiceProfile:
    """Per-(kernel, tier) costs of serving one request on a node."""

    kernel: str
    tier: str
    cold_time: float            #: binary upload + boot, once per cold batch
    cold_energy: float
    unit_io_time: float         #: per-iteration input + sync + output
    unit_compute_time: float    #: per-iteration compute at nominal clock
    unit_io_energy: float
    unit_compute_energy: float
    active_power: float         #: node draw while serving (PULP + link)
    pulp_frequency: float
    pulp_voltage: float

    def request_time(self, iterations: int, droop: float = 1.0) -> float:
        """Warm service seconds for one request (compute drooped)."""
        return iterations * (self.unit_io_time
                             + self.unit_compute_time / droop)

    def request_energy(self, iterations: int, droop: float = 1.0) -> float:
        """Warm service joules for one request."""
        return iterations * (self.unit_io_energy
                             + self.unit_compute_energy / droop)


class ServiceBook:
    """Interface the fleet prices requests against.

    :class:`AnalyticServiceBook` is the production implementation;
    tests substitute synthetic books (e.g. exponential service times for
    the M/M/1 validation).

    **Purity contract.**  A serving run may cache, per run:

    * :meth:`tiers`, :attr:`idle_power` and :meth:`active_power` — fixed
      for the run (the power gate reads them once per (book, kernel));
    * :meth:`estimate` — a function of the request's kernel and
      iteration count only, fixed for the run.

    The first call of each still reaches the book in the same order, so
    lazily priced books see the same first misses.  The per-use methods
    :meth:`batch_service`, :meth:`cold_cost`, :meth:`batch_compute`,
    :meth:`host_time` and :meth:`host_energy` may be stateful (an RNG
    draw per call) and are called exactly once per use.
    """

    #: Node draw while parked (lowest operating point, idle activity).
    idle_power: float = 0.0
    #: Host draw (always on: it drives the fleet and runs fallbacks).
    host_power: float = 0.0

    def tiers(self) -> Tuple[str, ...]:
        """The service tiers this book can price."""
        return ("fast",)

    def profile(self, kernel: str, tier: str = "fast") -> ServiceProfile:
        """Costs of *kernel* at *tier*."""
        raise NotImplementedError

    def active_power(self, kernel: str, tier: str) -> float:
        """Node draw (watts) while serving *kernel* at *tier*."""
        return self.profile(kernel, tier).active_power

    def cold_cost(self, kernel: str, tier: str) -> Tuple[float, float]:
        """(seconds, joules) of a cold start: binary upload + boot."""
        profile = self.profile(kernel, tier)
        return profile.cold_time, profile.cold_energy

    def batch_compute(self, batch: List[Request], tier: str,
                      droop: float = 1.0) -> float:
        """Compute-only seconds of a batch (sizes the hang watchdog)."""
        unit = self.profile(batch[0].kernel, tier).unit_compute_time
        return ordered_sum([unit * request.iterations
                            for request in batch]) / droop

    def batch_service(self, batch: List[Request], tier: str,
                      droop: float = 1.0) -> Tuple[float, float]:
        """(seconds, joules) of the warm portion of a batch."""
        profile = self.profile(batch[0].kernel, tier)
        # One iteration's cost, priced once per batch: scaling it by a
        # request's iterations is exactly request_time/request_energy.
        unit_time = profile.request_time(1, droop)
        unit_energy = profile.request_energy(1, droop)
        time = energy = 0.0   # left to right, as ordered_sum
        for request in batch:
            time += request.iterations * unit_time
            energy += request.iterations * unit_energy
        return time, energy

    def estimate(self, request: Request) -> float:
        """Expected warm fast-tier service seconds (SJF/EDF/deadlines)."""
        profile = self.profile(request.kernel, "fast")
        return profile.request_time(request.iterations)

    def host_time(self, request: Request) -> float:
        """Host-fallback execution seconds for one request."""
        raise NotImplementedError

    def host_energy(self, request: Request) -> float:
        """Extra host-fallback energy (host is already powered)."""
        return 0.0


class AnalyticServiceBook(ServiceBook):
    """Prices kernels through the calibrated offload stack, lazily."""

    def __init__(self, system: Optional[HeterogeneousSystem] = None,
                 host_mhz: float = 8.0,
                 tier_budgets: Optional[Dict[str, float]] = None):
        self.system = system if system is not None else HeterogeneousSystem()
        self.host_frequency = mhz(host_mhz)
        #: Per-tier envelope budgets; defaults to the module-level pair
        #: so archetypes can carry their own operating points.
        self.tier_budgets = dict(tier_budgets) if tier_budgets is not None \
            else dict(TIER_BUDGETS)
        self._profiles: Dict[Tuple[str, str], ServiceProfile] = {}
        self._host_runs: Dict[str, float] = {}
        power_model = self.system.soc.power_model
        table = power_model.table
        self.idle_power = power_model.total_power(
            table.f_min, table.v_min, ActivityProfile.idle())
        self.host_power = self.system.host.active_power(self.host_frequency)

    def tiers(self) -> Tuple[str, ...]:
        return tuple(self.tier_budgets)

    def profile(self, kernel: str, tier: str = "fast") -> ServiceProfile:
        key = (kernel, tier)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached
        if tier not in self.tier_budgets:
            raise ConfigurationError(f"unknown service tier {tier!r}")
        built = self._build(kernel, tier)
        self._profiles[key] = built
        return built

    def _build(self, kernel_name: str, tier: str) -> ServiceProfile:
        # Pricing is calibration, not part of the serving timeline: keep
        # its offload spans out of any live telemetry hub.
        from repro.obs import Telemetry, use_telemetry

        with use_telemetry(Telemetry(enabled=False)):
            return self._price(kernel_name, tier)

    def _price(self, kernel_name: str, tier: str,
               budget: Optional[float] = None,
               system: Optional[HeterogeneousSystem] = None,
               double_buffered: bool = False) -> ServiceProfile:
        """Price one (kernel, tier) through the staged pipeline.

        *budget*, *system* and *double_buffered* override the tier's
        default envelope budget, the book's system (e.g. a different
        cluster size) and the schedule — the hooks a learned book uses
        to price a predicted operating point through the identical
        stages.
        """
        system = system if system is not None else self.system
        budget = budget if budget is not None else self.tier_budgets[tier]
        characterization = pricing.characterize(system,
                                                kernel_by_name(kernel_name))
        solver = PowerEnvelopeSolver(
            budget=budget,
            host_device=system.host.device,
            pulp_power=system.soc.power_model)
        point = pricing.operating_point(solver, self.host_frequency,
                                        characterization.activity)
        if not point.accelerator_usable:
            raise ConfigurationError(
                f"{kernel_name}: no accelerator power budget at tier "
                f"{tier!r} with the host at "
                f"{self.host_frequency / 1e6:.0f} MHz")
        timing = pricing.price(system.cost_model, characterization, point,
                               self.host_frequency,
                               double_buffered=double_buffered)
        energy = timing.energy.energy_by_label()
        return ServiceProfile(
            kernel=kernel_name,
            tier=tier,
            cold_time=timing.binary_time + timing.boot_time,
            cold_energy=energy.get("binary", 0.0) + energy.get("boot", 0.0),
            unit_io_time=(timing.input_time + timing.sync_time
                          + timing.output_time),
            unit_compute_time=timing.compute_time,
            unit_io_energy=(energy.get("input", 0.0)
                            + energy.get("sync", 0.0)
                            + energy.get("output", 0.0)),
            unit_compute_energy=energy.get("compute", 0.0),
            active_power=point.pulp_power + point.link_power,
            pulp_frequency=point.pulp_frequency,
            pulp_voltage=point.pulp_voltage)

    def host_time(self, request: Request) -> float:
        cached = self._host_runs.get(request.kernel)
        if cached is None:
            from repro.obs import Telemetry, use_telemetry

            with use_telemetry(Telemetry(enabled=False)):
                cached = pricing.host_run(self.system,
                                          kernel_by_name(request.kernel),
                                          self.host_frequency).time
            self._host_runs[request.kernel] = cached
        return cached * request.iterations


class NodeState(enum.Enum):
    """Lifecycle states of a fleet node."""

    IDLE = "idle"
    BUSY = "busy"
    REBOOTING = "rebooting"
    DEAD = "dead"


class PowerTracker:
    """Piecewise-constant fleet power: host plus every node's draw."""

    def __init__(self, simulator: Simulator, base_w: float):
        self._simulator = simulator
        self._draws: Dict[str, float] = {}
        self.base_w = base_w
        self.current_w = base_w
        self.peak_w = base_w
        self.timeline: List[Tuple[float, float]] = [(0.0, base_w)]

    def set_draw(self, key: str, watts: float) -> None:
        """Update one component's draw at the current simulation time.

        A no-op when the draw does not change, and same-time updates
        collapse into one entry — offsetting updates that return to the
        previous level pop their redundant entry — so timelines stay
        compact over long chaos runs (flapping nodes, storm recoveries).
        """
        previous = self._draws.get(key, 0.0)
        if watts == previous:
            return
        self._draws[key] = watts
        current = self.current_w = self.current_w + (watts - previous)
        now = self._simulator.now
        timeline = self.timeline
        if timeline and timeline[-1][0] == now:
            timeline[-1] = (now, current)
            if len(timeline) >= 2 and timeline[-2][1] == current:
                timeline.pop()
        else:
            timeline.append((now, current))
        if current > self.peak_w:
            self.peak_w = current

    def energy(self, until: float) -> float:
        """Integral of the timeline up to *until* (joules)."""
        total = 0.0
        ends = [t for t, _ in self.timeline[1:]] + [until]
        for (t, watts), t_next in zip(self.timeline, ends):
            total += watts * max(0.0, min(t_next, until) - t)
        return total


@dataclass
class ServiceOutcome:
    """What one batch service ended as (delivered to the engine)."""

    node: "Node"
    batch: List[Request]
    tier: str
    start_s: float
    end_s: float
    fault_attempts: int
    recovery_actions: Tuple[str, ...]
    wasted_time_s: float
    wasted_energy_j: float
    energy_j: float
    died: bool


class Node:
    """One accelerator behind the host runtime, as a DES process."""

    def __init__(self, index: int, book: ServiceBook, simulator: Simulator,
                 tracker: PowerTracker,
                 plan: Optional[FaultPlan] = None, seed: int = 1,
                 on_outcome: Optional[Callable[[ServiceOutcome], None]] = None,
                 is_host: bool = False, archetype: Optional[str] = None):
        self.index = index
        self.name = "host-fallback" if is_host else f"node{index}"
        self.book = book
        #: Archetype name this node was built from (heterogeneous fleets
        #: route kernels by it); None on homogeneous fleets and the host.
        self.archetype = archetype
        self.simulator = simulator
        self.tracker = tracker
        self.is_host = is_host
        self.injector = FaultInjector(
            plan if plan is not None else FaultPlan.clean(), seed=seed)
        # Brownout is a supply condition, not an event stream: consult
        # once, droop the node's clock for the whole run.  Fleet-wide
        # chaos brownouts scale the *current* droop from this base.
        self.base_droop = self.injector.brownout_droop()
        self.droop = self.base_droop
        self._mailbox: Optional[Tuple[List[Request], str]] = None
        self.state = NodeState.IDLE
        self.resident: Optional[str] = None
        self.on_outcome = on_outcome
        self.busy_time = 0.0
        self.served_requests = 0
        self.served_batches = 0
        self.energy_j = 0.0
        self.reboots = 0
        self.process = None
        self._wake = None
        self._wake_name = f"{self.name}.wake"
        self._shutdown = False
        self._chaos_down = False
        if not is_host:
            tracker.set_draw(self.name, book.idle_power)

    @property
    def state(self) -> NodeState:
        """Where the node is in its life; setting it also settles
        :attr:`available`."""
        return self._state

    @state.setter
    def state(self, state: NodeState) -> None:
        self._set_state(state)

    @property
    def alive(self) -> bool:
        """Whether the node can still take work."""
        return self._state is not NodeState.DEAD

    def assign(self, batch: List[Request], tier: str) -> None:
        """Hand the node a batch (engine-side; node must be available).

        The busy draw is committed here, synchronously, so the power
        gate never over-dispatches on a stale fleet reading while the
        node's process wakeup is still in the event queue.
        """
        assert self.available, f"{self.name} is not available"
        self._mailbox = (batch, tier)
        if self.is_host:
            self.state = NodeState.BUSY
        else:
            self._set_state(NodeState.BUSY,
                            self.book.active_power(batch[0].kernel, tier))
        if self._wake is not None and not self._wake.triggered:
            self._wake.trigger()

    def shutdown(self) -> None:
        """Let the process exit once its mailbox is empty (drain)."""
        self._shutdown = True
        if self._wake is not None and not self._wake.triggered:
            self._wake.trigger()

    def crash(self) -> None:
        """Chaos: take the node down right now (engine-external).

        An in-flight batch dies with the node and is delivered as a
        ``died`` outcome for the engine to requeue.  A no-op on already
        dead nodes and on the host backend.
        """
        if self.is_host or not self.alive:
            return
        self._chaos_down = True
        if self.process is not None and not self.process.finished:
            self.process.interrupt("chaos-crash")

    def recover(self) -> None:
        """Chaos: bring a downed node back with a fresh boot.

        Caches are cold (``resident`` cleared) and a new process is
        started; recovery on a live node just clears a pending crash.
        """
        self._chaos_down = False
        if self.is_host or self._state is not NodeState.DEAD:
            return
        if self._shutdown:
            return  # the run drained while the node was down
        self.reboots += 1
        self.resident = None
        self._mailbox = None
        self._wake = None
        self._set_state(NodeState.IDLE, self.book.idle_power)
        self.process = self.simulator.add_process(
            self.run(), name=f"{self.name}.r{self.reboots}")

    def _set_state(self, state: NodeState,
                   draw_w: Optional[float] = None) -> None:
        """Enter *state*, drawing *draw_w* when given (the host's draw
        is not tracked)."""
        self._state = state
        #: Idle, alive, and not already holding an assignment.  Only
        #: assign() fills the mailbox, and it leaves IDLE at once; the
        #: mailbox empties only while BUSY or before a reboot's IDLE.
        self.available = state is NodeState.IDLE and self._mailbox is None
        if draw_w is not None and not self.is_host:
            self.tracker.set_draw(self.name, draw_w)

    # -- the process -------------------------------------------------------------

    def run(self):
        """Generator body: wait for assignments, serve, repeat."""
        while True:
            while self._mailbox is None:
                if self._chaos_down and not self.is_host:
                    self._set_state(NodeState.DEAD, 0.0)
                    return
                if self._shutdown:
                    return
                self._wake = self.simulator.event(self._wake_name)
                try:
                    yield self._wake
                except Interrupt:
                    continue  # loop re-checks the crash flag
            batch, tier = self._mailbox
            self._mailbox = None
            if self._chaos_down and not self.is_host:
                # The crash landed between assignment and pickup: the
                # batch dies with the node before service starts.
                self._set_state(NodeState.DEAD, 0.0)
                self._deliver(ServiceOutcome(
                    node=self, batch=batch, tier=tier,
                    start_s=self.simulator.now, end_s=self.simulator.now,
                    fault_attempts=0, recovery_actions=("chaos-crash",),
                    wasted_time_s=0.0, wasted_energy_j=0.0, energy_j=0.0,
                    died=True))
                return
            yield from (self._serve_host(batch) if self.is_host
                        else self._serve(batch, tier))
            if self._state is NodeState.DEAD:
                return

    def _serve_host(self, batch: List[Request]):
        """OpenMP host fallback: sequential, reliable, no extra draw."""
        start = self.simulator.now
        self.state = NodeState.BUSY
        service = ordered_sum([self.book.host_time(request)
                               for request in batch])
        energy = ordered_sum([self.book.host_energy(request)
                              for request in batch])
        yield Timeout(service)
        self.state = NodeState.IDLE
        self.busy_time += service
        self.served_requests += len(batch)
        self.served_batches += 1
        self.energy_j += energy
        self._deliver(ServiceOutcome(
            node=self, batch=batch, tier="host", start_s=start,
            end_s=self.simulator.now, fault_attempts=0,
            recovery_actions=(), wasted_time_s=0.0, wasted_energy_j=0.0,
            energy_j=energy, died=False))

    def _serve(self, batch: List[Request], tier: str):
        """One batch through the fleet-level resilient ladder."""
        kernel = batch[0].kernel
        active_power = self.book.active_power(kernel, tier)
        start = self.simulator.now
        wasted_time = 0.0
        wasted_energy = 0.0
        failures = 0
        recovery: List[str] = []
        injector = self.injector
        self._set_state(NodeState.BUSY, active_power)
        try:
            for rung in LADDER:
                if rung == "re-arm":
                    recovery.append("re-arm")
                elif rung == "reboot":
                    recovery.append("reboot")
                    self.reboots += 1
                    self.resident = None
                    self._set_state(NodeState.REBOOTING, self.book.idle_power)
                    yield Timeout(_RETRY.boot_timeout_s)
                    wasted_time += _RETRY.boot_timeout_s
                    wasted_energy += _RETRY.boot_timeout_s \
                        * self.book.idle_power
                    self._set_state(NodeState.BUSY, active_power)
                if injector.boots_can_fail and injector.boot_fails():
                    failures += 1
                    yield Timeout(_RETRY.boot_timeout_s)
                    wasted_time += _RETRY.boot_timeout_s
                    wasted_energy += _RETRY.boot_timeout_s * active_power
                    continue
                if injector.kernels_can_hang and injector.kernel_hangs():
                    failures += 1
                    compute = self.book.batch_compute(batch, tier, self.droop)
                    watchdog = max(_RETRY.watchdog_floor_s,
                                   _RETRY.watchdog_factor * compute)
                    yield Timeout(watchdog)
                    recovery.append("watchdog")
                    wasted_time += watchdog
                    wasted_energy += watchdog * active_power
                    continue
                # Success: cold costs once per batch, warm per request.
                cold_time = cold_energy = 0.0
                if self.resident != kernel:
                    cold_time, cold_energy = self.book.cold_cost(kernel, tier)
                warm_time, warm_energy = self.book.batch_service(
                    batch, tier, self.droop)
                service = cold_time + warm_time
                energy = cold_energy + warm_energy
                yield Timeout(service)
                self.resident = kernel
                self._set_state(NodeState.IDLE, self.book.idle_power)
                self.busy_time += service + wasted_time
                self.served_requests += len(batch)
                self.served_batches += 1
                self.energy_j += energy + wasted_energy
                self._deliver(ServiceOutcome(
                    self, batch, tier, start, self.simulator.now, failures,
                    tuple(recovery), wasted_time, wasted_energy,
                    energy + wasted_energy, False))
                return
        except Interrupt:
            # Chaos crash mid-service: everything since batch start was
            # wasted.  Energy attribution approximates the whole span at
            # the active draw (the tracker's integral stays exact).
            elapsed = self.simulator.now - start
            wasted_energy += max(0.0, elapsed - wasted_time) * active_power
            wasted_time = elapsed
            self._set_state(NodeState.DEAD, 0.0)
            self.energy_j += wasted_energy
            self._deliver(ServiceOutcome(
                node=self, batch=batch, tier=tier, start_s=start,
                end_s=self.simulator.now, fault_attempts=failures,
                recovery_actions=tuple(recovery + ["chaos-crash"]),
                wasted_time_s=wasted_time, wasted_energy_j=wasted_energy,
                energy_j=wasted_energy, died=True))
            return
        # Ladder exhausted: the node is dead; the engine requeues.
        self._set_state(NodeState.DEAD, 0.0)
        self.energy_j += wasted_energy
        self._deliver(ServiceOutcome(
            node=self, batch=batch, tier=tier, start_s=start,
            end_s=self.simulator.now, fault_attempts=failures,
            recovery_actions=tuple(recovery + ["node-dead"]),
            wasted_time_s=wasted_time, wasted_energy_j=wasted_energy,
            energy_j=wasted_energy, died=True))

    def _deliver(self, outcome: ServiceOutcome) -> None:
        if self.on_outcome is not None:
            self.on_outcome(outcome)


class Fleet:
    """N accelerator nodes plus the host fallback backend.

    Homogeneous by default (every node prices through *book*); pass
    *groups* — an ordered list of ``(archetype_name, book, count)``
    triples — to build a heterogeneous fleet whose nodes carry
    per-archetype books.  *book* stays the host/default pricing (host
    fallback, scheduler estimates).  Group order assigns node indices
    (group 0 gets the lowest), matching how fault plans cycle.
    """

    def __init__(self, simulator: Simulator, book: ServiceBook,
                 nodes: int, plans: Optional[List[FaultPlan]] = None,
                 seed: int = 1,
                 on_outcome: Optional[Callable[[ServiceOutcome], None]] = None,
                 groups: Optional[
                     List[Tuple[Optional[str], ServiceBook, int]]] = None):
        if nodes < 1:
            raise ConfigurationError(f"fleet needs >= 1 nodes, got {nodes}")
        if groups is not None and sum(count for _, _, count in groups) \
                != nodes:
            raise ConfigurationError(
                f"fleet groups sum to "
                f"{sum(count for _, _, count in groups)} nodes, "
                f"but the fleet was sized for {nodes}")
        self.simulator = simulator
        self.book = book
        self.tracker = PowerTracker(simulator, base_w=book.host_power)
        self.nodes: List[Node] = []
        if groups is None:
            groups = [(None, book, nodes)]
        index = 0
        for archetype, group_book, count in groups:
            for _ in range(count):
                plan = None
                if plans:
                    plan = plans[index % len(plans)]
                self.nodes.append(Node(
                    index, group_book, simulator, self.tracker, plan=plan,
                    seed=seed * 1000 + index * 7919 + 1,
                    on_outcome=on_outcome, archetype=archetype))
                index += 1
        self.host = Node(nodes, book, simulator, self.tracker,
                         seed=seed, on_outcome=on_outcome, is_host=True)

    def start(self) -> None:
        """Launch every node process (plus the host backend)."""
        for node in self.nodes:
            node.process = self.simulator.add_process(node.run(),
                                                      name=node.name)
        self.host.process = self.simulator.add_process(self.host.run(),
                                                       name=self.host.name)

    def shutdown(self) -> None:
        """Drain: let every idle process exit."""
        for node in self.nodes:
            node.shutdown()
        self.host.shutdown()

    @property
    def dead_nodes(self) -> int:
        """Accelerators lost to exhausted recovery ladders."""
        return sum(1 for node in self.nodes if not node.alive)
