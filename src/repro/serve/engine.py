"""The serving engine: workload -> scheduler -> fleet, as one DES run.

The engine's own actors are scheduled callbacks on one
:class:`~repro.sim.Simulator`; only the nodes are generator processes:

* the **arrival stream** submits the workload's requests into the
  scheduler, one scheduled call per future arrival (closed-loop clients
  additionally re-issue after each completion, two scheduled calls per
  follow-up);
* the **dispatcher** drains the scheduler queue onto available nodes —
  power-gated and tier-selected under a budget — and, when there is
  nothing to do, goes idle until the next arrival, completion or
  :meth:`ServeEngine.kick` schedules one dispatch step; fires that
  land while a step is already scheduled fold into that step;
* each **node** (plus the host-fallback backend) is its own process in
  :mod:`repro.serve.fleet`, because chaos crashes interrupt it
  mid-ladder.

Every callback is scheduled at the moment, and in the order, that a
process resume would be, so the event stream (and every tie-break in it)
is that of a process-based engine.  A dispatcher that is still waiting
when the event queue runs dry is a lost wakeup: the engine raises
:class:`~repro.errors.DeadlockError` naming ``serve.dispatcher``.

A batch on a node that dies mid-ladder is requeued at the head of the
queue (and re-served elsewhere, ultimately by the host when every
accelerator is gone) — no request is ever silently lost; the engine
asserts the conservation law ``arrivals == completed + dropped`` at
drain.  A power budget under which some kernel of the workload fits no
node of a healthy idle fleet, at any tier the policy allows, could only
defer it forever; the engine rejects it before simulating.

With ``ServeConfig.resilience`` set, the fleet-scope robustness
machinery of :mod:`repro.serve.resilience` is armed: circuit breakers
and health ejection filter the backend pick, a retry budget caps
requeue amplification (exhaustion sheds as ``retry-budget`` drops),
overdue batches are hedged onto a second node, the overload ladder
degrades fast → eco → host-assist → shed, and every completion/drop
feeds the per-kernel SLO error budgets.

Every run, plain, routed or resilient, goes through one dispatch loop,
one node pick and one completion handler.  Without resilience their
resilience steps are skipped and no batch is tracked for hedging;
without a routing table every node takes the policy's next batch.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, DeadlockError, SimulationError
from repro.faults.plan import FaultPlan
from repro.faults.resilient import RetryPolicy
from repro.serve.archetype import FleetSpec
from repro.serve.fleet import (
    AnalyticServiceBook,
    Fleet,
    Node,
    ServiceBook,
    ServiceOutcome,
)
from repro.serve.metrics import RequestRecord, ServeReport
from repro.serve.resilience import ResilienceConfig, ResilienceRuntime
from repro.serve.scheduler import (
    Policy,
    Scheduler,
    SchedulerConfig,
    policy_name,
)
from repro.serve.workload import Request, Workload
from repro.sim.engine import Simulator
from repro.units import ordered_sum


#: Report order of request records: completion time, then request id.
_COMPLETION_ORDER = operator.attrgetter("end_s", "request.request_id")


@dataclass
class ServeConfig:
    """One serving run, fully specified."""

    workload: Workload
    nodes: int = 4
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: Per-node fault plans, cycled across the fleet (None = fault-free).
    fault_plans: Optional[List[FaultPlan]] = None
    seed: int = 1
    retry: Optional[RetryPolicy] = None
    #: Pricing backend; None builds the calibrated analytic book.
    book: Optional[ServiceBook] = None
    #: Fleet robustness machinery; None = plain engine (bit-identical
    #: to the pre-resilience behavior).
    resilience: Optional[ResilienceConfig] = None
    #: Heterogeneous fleet composition; None = homogeneous fleet of
    #: ``nodes`` default-archetype nodes (bit-identical to the
    #: pre-heterogeneity behavior).  When set, ``nodes`` is derived from
    #: the spec and the spec's routing table steers dispatch.
    fleet: Optional[FleetSpec] = None

    def __post_init__(self) -> None:
        if self.fleet is not None:
            self.nodes = self.fleet.nodes
        if self.nodes < 1:
            raise ConfigurationError(f"need >= 1 nodes, got {self.nodes}")


@dataclass
class _Flight:
    """Resilience-path bookkeeping of one dispatched batch (+ hedge).

    Keyed in the engine by the identity of each dispatched batch list
    (the hedge copy is a distinct list of the same requests), so the
    pair resolves exactly once no matter which copy finishes first.
    """

    batch: List[Request]
    node_name: str
    expected_end: float
    outstanding: int = 1
    resolved: bool = False
    hedge_batch: Optional[List[Request]] = None


class ServeEngine:
    """Runs one :class:`ServeConfig` to completion."""

    def __init__(self, config: ServeConfig):
        self.config = config
        groups = None
        self.routing: Dict[str, str] = {}
        if config.fleet is not None:
            books = config.fleet.books()
            groups = [(archetype.name, books[archetype.name], count)
                      for archetype, count in config.fleet.groups]
            self.routing = dict(config.fleet.routing)
            # Host fallback and scheduler estimates price through the
            # first group's book unless the caller pinned one.
            default_book = groups[0][1]
        else:
            default_book = None
        self.book = config.book if config.book is not None \
            else (default_book if default_book is not None
                  else AnalyticServiceBook())
        self.simulator = Simulator()
        self.scheduler = Scheduler(config.scheduler, self.book)
        self.fleet = Fleet(
            self.simulator, self.book, config.nodes,
            plans=config.fault_plans, seed=config.seed,
            retry=config.retry, on_outcome=self._on_outcome,
            groups=groups)
        self.res = ResilienceRuntime(config.resilience) \
            if config.resilience is not None else None
        self.records: List[RequestRecord] = []
        self.submitted = 0
        self.in_flight = 0
        self.drain_hooks: List = []
        self._flights: Dict[int, _Flight] = {}
        #: Hedge candidates: (expected_end, lead request_id, launch
        #: index, flight); flights that stop qualifying are dropped
        #: lazily when they reach the head.
        self._hedge_heap: List[Tuple[float, int, int, _Flight]] = []
        self._launches = 0
        #: (id(book), kernel) -> (fast_w, eco_w, has_eco): the power
        #: gate's inputs, priced once per run (books are fixed for a run).
        self._draws: Dict[Tuple[int, str], Tuple[float, float, bool]] = {}
        #: (kernel, iterations) -> book estimate, filled on first use.
        self._estimates: Dict[Tuple[str, int], float] = {}
        self._requeues: Dict[int, int] = {}
        self._stream: List[Request] = []
        self._arrivals_open = True
        #: Waiting for a fire: the next one schedules a dispatch step.
        self._idle = False
        self._drained = False

    # -- public ------------------------------------------------------------------

    def run(self) -> ServeReport:
        """Execute the run and fold it into a report."""
        workload = self.config.workload
        stream = workload.arrivals(self._estimator)
        self._total_expected = (workload.total_requests
                                if workload.closed_loop else len(stream))
        if self._total_expected == 0:
            raise ConfigurationError(
                f"workload produced no requests: {workload.describe()}")
        self._check_power_budget(stream)
        self._stream = stream
        simulator = self.simulator
        self.fleet.start()
        if self.res is not None:
            self.res.start(self)
            self.drain_hooks.append(
                lambda: self.res.stop(self.simulator))
        simulator.schedule(0.0, self._arrivals, 0)
        simulator.schedule(0.0, self._dispatch_step)
        simulator.run()
        blocked = simulator.blocked()
        if not self._drained:
            blocked.append("serve.dispatcher")
        if blocked:
            # A lost wakeup: the queue ran dry with work still waiting.
            raise DeadlockError(
                f"simulation drained with blocked processes: {blocked}")
        # Conservation: nothing pending, nothing silently lost.
        completed = len(self.records)
        dropped = len(self.scheduler.dropped)
        if self.scheduler.queue or self.in_flight:
            raise SimulationError(
                f"serve drain left {len(self.scheduler.queue)} queued and "
                f"{self.in_flight} in flight")
        if self.submitted != completed + dropped:
            raise SimulationError(
                f"request conservation violated: {self.submitted} arrived "
                f"!= {completed} completed + {dropped} dropped")
        return self._report()

    def _check_power_budget(self, stream: List[Request]) -> None:
        """Reject a power budget that some kernel fits on no node.

        The power gate never sees a lower fleet draw than the healthy
        idle fleet at time 0, so a kernel of the workload that no node
        can start there, at any tier the policy allows, would be
        deferred forever.  Prices what the gate prices: the eco tier
        only when the fast one fits nowhere.
        """
        scheduler = self.scheduler
        budget = scheduler.config.power_budget_w
        if budget is None:
            return
        workload = self.config.workload
        kernels = {request.kernel for request in stream}
        if workload.closed_loop:
            # Follow-ups draw from the clients' mix, not just the wave.
            kernels.update(kernel for kernel, weight
                           in getattr(workload, "mix", {}).items()
                           if weight > 0)
        tiers = ("fast", "eco") if scheduler.config.policy \
            is Policy.POWER_CAP else ("fast",)
        idle_w = self.fleet.tracker.current_w
        books = list({id(node.book): node.book
                      for node in self.fleet.nodes}.values())

        def starts(kernel):
            """(node idle draw, active draw) per way to start *kernel*."""
            for tier in tiers:
                for book in books:
                    if tier == "fast" or tier in book.tiers():
                        yield book.idle_power, book.active_power(kernel, tier)

        for kernel in sorted(kernels):
            needs = []
            for node_idle_w, active_w in starts(kernel):
                if scheduler.power_allows(idle_w, node_idle_w, active_w):
                    break
                needs.append(idle_w - node_idle_w + active_w)
            else:
                raise ConfigurationError(
                    f"power budget {budget * 1e3:.3f} mW cannot run "
                    f"{kernel!r} on an idle fleet (needs "
                    f"{min(needs) * 1e3:.3f} mW)")

    def kick(self) -> None:
        """External wake of the dispatcher.

        Chaos events and health probes change backend availability
        without an arrival or a completion; this re-evaluates dispatch.
        """
        self._fire()

    # -- arrivals ----------------------------------------------------------------

    def _estimator(self, kernel: str, iterations: int) -> float:
        key = (kernel, iterations)
        estimate = self._estimates.get(key)
        if estimate is None:
            probe = Request(request_id=-1, kernel=kernel, arrival_s=0.0,
                            iterations=iterations)
            estimate = self._estimates[key] = self.book.estimate(probe)
        return estimate

    def _arrivals(self, index: int) -> None:
        """Submit the stream from *index* up to the next future arrival.

        A future arrival gets a timer; when it fires, :meth:`_arrive`
        submits exactly the request it was set for.
        """
        stream = self._stream
        now = self.simulator.now
        for index in range(index, len(stream)):
            request = stream[index]
            delay = request.arrival_s - now
            if delay > 0:
                self.simulator.schedule(delay, self._arrive, index)
                return
            self._submit(request)
        self._arrivals_open = False
        # Wake the dispatcher so an already-drained run can finish.
        self._fire()

    def _arrive(self, index: int) -> None:
        self._submit(self._stream[index])
        self._arrivals(index + 1)

    def _reissue(self, request: Request) -> None:
        delay = request.arrival_s - self.simulator.now
        if delay > 0:
            self.simulator.schedule(delay, self._submit, request)
        else:
            self._submit(request)

    def _submit(self, request: Request) -> None:
        self.submitted += 1
        admitted = self.scheduler.submit(request)
        if admitted:
            self._fire()
        else:
            # A closed-loop client whose request was turned away thinks
            # again — otherwise its chain (and the drain) would stall.
            self._issue_next(request)

    def _issue_next(self, request: Request) -> None:
        workload = self.config.workload
        if not workload.closed_loop or request.client is None:
            return
        follow = workload.next_request(
            request.client, self.simulator.now, self._estimator)
        if follow is not None:
            if self.res is not None and self.res.overload.level > 0:
                # Admission backpressure: under overload, closed-loop
                # clients are slowed down at the source.
                follow.arrival_s += (self.res.config.backpressure_s
                                     * self.res.overload.level)
                self.res.backpressure_events += 1
            self.simulator.schedule(0.0, self._reissue, follow)

    # -- dispatch ----------------------------------------------------------------

    def _fire(self) -> None:
        """Wake an idle dispatcher: one scheduled step per idle spell."""
        if self._idle:
            self._idle = False
            self.simulator.schedule(0.0, self._dispatch_step)

    def _done(self) -> bool:
        return (not self._arrivals_open
                and self.submitted >= self._total_expected
                and not self.scheduler.queue
                and self.in_flight == 0)

    def _dispatch_step(self) -> None:
        """One dispatcher wake: dispatch, then drain or go idle."""
        self._dispatch_ready()
        if not self._done():
            self._idle = True
            return
        for hook in self.drain_hooks:
            # Cancel speculative timers (health probes, pending chaos
            # events) so they neither stall the drain nor inflate the
            # reported duration.
            hook()
        self.fleet.shutdown()
        self._drained = True

    def _usable_nodes(self) -> List[Node]:
        """Dispatchable backends in fleet order (host only as fallback).

        With no usable accelerator free, the host takes over when no
        live one is usable at all (the whole fleet is gone or, under
        resilience, every survivor is ejected or breakered) and, under
        resilience, eagerly at the host-assist overload rung.
        """
        nodes = self.fleet.nodes
        usable = [node for node in nodes if node.available]
        res = self.res
        if res is not None:
            usable = res.usable(usable, self.simulator.now)
        if usable or not self.fleet.host.available:
            return usable
        # Scan before reading the rung: ``allows`` turns an open breaker
        # whose cooldown is over half-open.
        survivor = any(node.alive and (res is None or res.node_usable(
            node.name, self.simulator.now)) for node in nodes)
        if survivor and (res is None or res.overload.level < 2):
            return []
        return [self.fleet.host]

    def _tier_for(self, node: Node, batch: List[Request]) -> Optional[str]:
        if node.is_host:
            return "host"
        # Priced through the serving node's own book: on heterogeneous
        # fleets each archetype carries its own operating points (on a
        # homogeneous fleet node.book IS self.book).
        book = node.book
        kernel = batch[0].kernel
        key = (id(book), kernel)
        draws = self._draws.get(key)
        if draws is None:
            # First use: the same pricing calls, in the same order, as
            # an uncached gate makes.
            fast_w = book.active_power(kernel, "fast")
            has_eco = "eco" in book.tiers()
            eco_w = book.active_power(kernel, "eco") if has_eco else fast_w
            draws = self._draws[key] = (fast_w, eco_w, has_eco)
        fast_w, eco_w, has_eco = draws
        tier = self.scheduler.tier_for(
            self.fleet.tracker.current_w, book.idle_power,
            fast_w, eco_w)
        if (tier == "fast" and has_eco and self.res is not None
                and self.res.overload.level >= 1):
            # Brownout ladder rung 1+: shed watts before shedding work.
            tier = "eco"
            self.res.eco_degrades += 1
        return tier

    def _dispatch_ready(self) -> None:
        """Launch queued batches while some usable node takes one.

        Routing is strict: an accelerator only takes kernels routed to
        its archetype, so a spilled batch can never evict another
        class's resident binary — the partitioned fleet the capacity
        planner prices is the fleet the DES runs.  Two escape hatches
        keep strictness from stalling the queue: kernels without a
        routing entry run anywhere, and a kernel whose routed archetype
        has no node left alive spills to any survivor (serving it dirty
        beats never serving it).  The host fallback has no resident
        binary to thrash and takes whatever the policy orders first, as
        does every node when there is no routing table.
        """
        res = self.res
        if res is not None:
            self._overload_tick()
        scheduler = self.scheduler
        routing = self.routing
        now = self.simulator.now
        while scheduler.queue:
            candidates = self._usable_nodes()
            if not candidates:
                break
            if routing:
                alive = {node.archetype for node in self.fleet.nodes
                         if node.alive}
            for node in candidates:
                allow = None
                if routing and not node.is_host:
                    def allow(request, _arch=node.archetype,
                              _alive=alive):
                        target = routing.get(request.kernel)
                        return (target is None or target == _arch
                                or target not in _alive)
                batch, late = scheduler.take_batch(now, allow)
                for request in late:
                    # Late drops end a closed-loop chain unless the
                    # client gets to think again.
                    self._issue_next(request)
                if batch or not scheduler.queue:
                    break   # served, or late drops emptied the queue
            if not batch:
                break       # nothing left that a usable node may serve
            tier = self._tier_for(node, batch)
            if tier is None:
                self._defer(batch)
                break
            self._launch(node, batch, tier)
        if res is not None and res.config.hedging:
            self._maybe_hedge()

    def _defer(self, batch: List[Request]) -> None:
        """Requeue an over-budget batch (callers stop the round).

        Over budget even throttled: the batch waits until a completion
        lowers the fleet draw.  The power gate is fleet-wide, so no
        other candidate fits either.
        """
        self.scheduler.requeue(batch)
        if self.res is not None:
            change = self.res.overload.note_deferral()
            if change is not None:
                self.res.alert(
                    self.simulator.now, "warn", "overload",
                    self.res.overload.level_name,
                    f"power-gate pressure -> level {change}")

    def _launch(self, node: Node, batch: List[Request], tier: str) -> None:
        self.in_flight += len(batch)
        if self.res is not None:
            self._flights[id(batch)] = flight = _Flight(
                batch=batch, node_name=node.name,
                expected_end=self._expected_end(node, batch, tier))
            if self.res.config.hedging:
                heapq.heappush(self._hedge_heap, (
                    flight.expected_end, batch[0].request_id,
                    self._launches, flight))
                self._launches += 1
            if not node.is_host:
                self.res.breaker(node.name).note_dispatch()
        node.assign(batch, tier)

    def _expected_end(self, node: Node, batch: List[Request],
                      tier: str) -> float:
        """When this dispatch should finish, barring faults.

        Mirrors the node's happy path (cold upload if the kernel is not
        resident, then the batched warm service at the node's current
        droop), so a healthy fleet never trips the hedging margin.
        """
        now = self.simulator.now
        if node.is_host:
            return now + ordered_sum([self.book.host_time(request)
                                      for request in batch])
        cold = 0.0
        if node.resident != batch[0].kernel:
            cold, _ = node.book.cold_cost(batch[0].kernel, tier)
        warm, _ = node.book.batch_service(batch, tier, node.droop)
        return now + cold + warm

    def _overload_tick(self) -> None:
        res = self.res
        now = self.simulator.now
        change = res.overload.observe(len(self.scheduler.queue))
        if change is not None:
            res.alert(now, "info", "overload", res.overload.level_name,
                      f"queue depth {len(self.scheduler.queue)} -> "
                      f"level {change}")
        if res.overload.level >= 3:
            victims = self.scheduler.shed(res.config.queue_low)
            for request in victims:
                res.sheds += 1
                res.slo.record_drop(request.kernel, now)
                self._requeues.pop(request.request_id, None)
                self._issue_next(request)
            if victims:
                res.alert(now, "warn", "overload", "shed",
                          f"shed {len(victims)} queued requests")

    def _maybe_hedge(self) -> None:
        res = self.res
        heap = self._hedge_heap
        # A flight stops qualifying for good once it resolves, is hedged
        # or has no copy left running: drop those from the head.
        while heap:
            flight = heap[0][3]
            if flight.outstanding > 0 and not flight.resolved \
                    and flight.hedge_batch is None:
                break
            heapq.heappop(heap)
        else:
            return
        # One hedge per wake, oldest promise first: hedging is a relief
        # valve, not a second dispatcher.  Overdue-ness is monotone in
        # expected_end, so the head is the oldest overdue flight or
        # nothing is overdue.
        if not self.simulator.now \
                > flight.expected_end + res.config.hedge_margin_s:
            return
        candidates = self._usable_nodes()
        if not candidates:
            return
        # Unlike dispatch, a hedge treats routing as a preference: the
        # first usable node of the routed archetype, else the first.
        node = candidates[0]
        target = self.routing.get(flight.batch[0].kernel)
        if target is not None:
            node = next((candidate for candidate in candidates
                         if candidate.archetype == target), node)
        if node.name == flight.node_name:
            return
        hedge_batch = list(flight.batch)
        tier = self._tier_for(node, hedge_batch)
        if tier is None:
            return
        flight.hedge_batch = hedge_batch
        flight.outstanding += 1
        self._flights[id(hedge_batch)] = flight
        res.hedges += 1
        # The pair counts once against in_flight; only the node is told.
        if not node.is_host:
            res.breaker(node.name).note_dispatch()
        node.assign(hedge_batch, tier)

    # -- completions -------------------------------------------------------------

    def _on_outcome(self, outcome: ServiceOutcome) -> None:
        res = self.res
        batch = outcome.batch
        flight = None       # only resilient runs track flights
        if res is not None:
            flight = self._flights.pop(id(batch), None)
            if flight is not None:
                flight.outstanding -= 1
            node = outcome.node
            if not node.is_host:
                if outcome.died:
                    res.record_failure(node.name, self.simulator.now)
                else:
                    res.breaker(node.name).record_success()
        if flight is not None and flight.resolved:
            # The pair already completed on the other copy: this
            # loser's spend (died or merely slower) is hedging waste.
            res.hedge_waste_time_s += outcome.end_s - outcome.start_s
            res.hedge_waste_energy_j += outcome.energy_j
        elif outcome.died:
            if flight is not None and flight.outstanding > 0:
                # The hedge copy is still running and becomes the retry
                # — no requeue, no extra in-flight accounting.
                res.hedge_covered_failures += 1
            else:
                # The node took its batch down with it: back to the head
                # of the queue, to be re-served elsewhere.
                self.in_flight -= len(batch)
                if res is None or res.retry.allow(len(batch),
                                                  len(self.records)):
                    self._requeue(batch)
                else:
                    # Retry budget exhausted: shedding beats a requeue
                    # storm amplifying the outage.
                    now = self.simulator.now
                    res.alert(now, "warn", "overload", "retry-budget",
                              f"budget exhausted; shedding "
                              f"{len(batch)} requests")
                    for request in batch:
                        self.scheduler.dropped.append(
                            (request, "retry-budget"))
                        res.slo.record_drop(request.kernel, now)
                        self._requeues.pop(request.request_id, None)
                        self._issue_next(request)
        else:
            if flight is not None:
                flight.resolved = True
                if batch is flight.hedge_batch:
                    res.hedge_wins += 1
            self._record(outcome)
        self._fire()

    def _requeue(self, batch: List[Request]) -> None:
        """Send a dead node's batch back to the queue head, counted."""
        for request in batch:
            self._requeues[request.request_id] = \
                self._requeues.get(request.request_id, 0) + 1
        self.scheduler.requeue(batch)

    def _record(self, outcome: ServiceOutcome) -> None:
        """Fold a served batch into one record per request."""
        res = self.res
        batch = outcome.batch
        now = self.simulator.now
        self.in_flight -= len(batch)
        start_s = outcome.start_s
        end_s = outcome.end_s
        node = outcome.node.name
        tier = outcome.tier
        share = 1.0 / len(batch)
        energy_j = outcome.energy_j * share
        requeues = self._requeues
        append = self.records.append
        for index, request in enumerate(batch):
            if res is not None:
                res.slo.record_completion(
                    request.kernel, end_s - request.arrival_s,
                    self._estimator(request.kernel, request.iterations), now)
                res.completed += 1
            append(RequestRecord(
                request=request,
                start_s=start_s,
                end_s=end_s,
                node=node,
                tier=tier,
                requeues=requeues.pop(request.request_id, 0),
                # Ladder stats land on the batch lead so report-level
                # sums stay exact.
                fault_attempts=outcome.fault_attempts if index == 0 else 0,
                wasted_time_s=outcome.wasted_time_s if index == 0 else 0.0,
                wasted_energy_j=(outcome.wasted_energy_j
                                 if index == 0 else 0.0),
                energy_j=energy_j))
            self._issue_next(request)

    # -- reporting ---------------------------------------------------------------

    def _report(self) -> ServeReport:
        duration = self.simulator.now
        nodes = list(self.fleet.nodes) + [self.fleet.host]
        tracker = self.fleet.tracker
        report = ServeReport(
            policy=policy_name(self.config.scheduler.policy),
            workload=self.config.workload.describe(),
            nodes=self.config.nodes,
            duration_s=duration,
            records=sorted(self.records, key=_COMPLETION_ORDER),
            dropped=list(self.scheduler.dropped),
            power_timeline=list(tracker.timeline),
            power_peak_w=tracker.peak_w,
            power_budget_w=self.config.scheduler.power_budget_w,
            node_busy_s={node.name: node.busy_time for node in nodes},
            node_requests={node.name: node.served_requests
                           for node in nodes},
            node_batches={node.name: node.served_batches for node in nodes},
            node_energy_j={node.name: node.energy_j for node in nodes},
            dead_nodes=self.fleet.dead_nodes,
            reboots=sum(node.reboots for node in self.fleet.nodes),
            fleet_energy_j=tracker.energy(duration),
            resilience=self.res.summary() if self.res is not None else None,
            node_archetypes=(
                {node.name: node.archetype for node in self.fleet.nodes}
                if self.config.fleet is not None else None))
        report.emit_telemetry()
        return report


def default_power_budget(book: ServiceBook, nodes: int,
                         active_fraction: float = 0.75) -> float:
    """A budget that keeps roughly *active_fraction* of the fleet hot.

    Sized from the book's calibrated draws: host + every node idling +
    ``ceil(active_fraction * nodes)`` at the hottest fast-tier operating
    point, plus one part in a thousand of slack so the boundary dispatch
    is not flapped by float noise.
    """
    if not 0.0 < active_fraction <= 1.0:
        raise ConfigurationError(
            f"active fraction {active_fraction} outside (0, 1]")
    hot = max(book.active_power(kernel, "fast")
              for kernel in ("matmul", "svm (RBF)", "cnn"))
    actives = max(1, -(-int(active_fraction * 1000) * nodes // 1000))
    actives = min(actives, nodes)
    return (book.host_power + nodes * book.idle_power
            + actives * (hot - book.idle_power)) * 1.001
