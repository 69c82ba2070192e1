"""The analytic capacity model of one node class.

Given the same inputs a :class:`~repro.serve.engine.ServeConfig` takes —
arrival rate and mix, node count, batch cap, optional power budget and
fault plans — predict what the DES would report, in microseconds of
wall time instead of a full event-by-event run:

1. price the mix through the class's service book
   (:func:`~repro.capacity.corrections.kernel_shapes`);
2. fold in the corrections: batch coalescing (cold amortization and
   batchmate latency), the eco power-cap tier, and fault overheads —
   iterated to a fixed point, since batch sizes depend on the queue
   length which depends on the service time which depends on the batch
   sizes;
3. read throughput, utilization, mean wait/latency and energy per
   request off the corrected M/M/k (Allen–Cunneen scaled for the
   deterministic service mixture);
4. get p50/p95 latency by bisecting the closed-form sojourn survival
   ``P(T > t) = sum_atoms pi_a P(D > t - v_a)`` where ``D`` is the
   Erlang-C delay and the atoms are the discrete (kernel x cold/warm)
   service-latency values.

The model is cross-validated against seeded DES runs by
``python -m repro capacity validate`` (CI-gated at <= 10 % on mean
latency and throughput; see ``docs/CAPACITY.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.capacity.corrections import (
    FaultEffect,
    KernelShape,
    batch_sizes,
    blend_shapes,
    fault_effect,
    kernel_shapes,
    power_cap_effect,
    switch_probability,
)
from repro.capacity.queueing import (
    MMkQueue,
    allen_cunneen_factor,
    batch_drain_factor,
    mmk_wait,
)
from repro.serve.fleet import ServiceBook
from repro.serve.workload import DEFAULT_MIX

#: Outer sweeps refreshing the eco power-cap split against the load.
_ECO_ROUNDS = 8
_ECO_TOL = 1e-9
#: Bisection depth for the self-consistent queue length (2^-40 of the
#: bracket: far below the calibration tolerance).
_BISECT_ITERS = 40


@dataclass
class CapacityInputs:
    """One node-class scenario, in ServeConfig vocabulary."""

    arrival_rate: float
    requests: int = 400
    mix: Optional[Dict[str, float]] = None
    iterations: int = 1
    nodes: int = 4
    max_batch: int = 8
    power_budget_w: Optional[float] = None
    fault_plans: Optional[List[FaultPlan]] = None

    def __post_init__(self) -> None:
        if not 0 < self.arrival_rate < math.inf:
            raise ConfigurationError(
                f"arrival rate must be finite and positive, got {self.arrival_rate}")
        if self.requests < 1:
            raise ConfigurationError(
                f"need >= 1 requests, got {self.requests}")
        if self.nodes < 1:
            raise ConfigurationError(f"need >= 1 nodes, got {self.nodes}")
        if self.iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {self.iterations}")
        if self.mix is None:
            self.mix = dict(DEFAULT_MIX)


@dataclass(frozen=True)
class LatencyAtom:
    """One discrete service-latency value and its probability mass."""

    probability: float
    latency_s: float


@dataclass
class CapacityPrediction:
    """What the model expects the DES report to say."""

    stable: bool
    servers: int                 #: surviving, power-admitted servers
    offered_load: float          #: erlangs against those servers
    utilization: float           #: predicted busy fraction per node
    wait_probability: float      #: Erlang-C P(wait)
    mean_wait_s: float
    mean_latency_s: float
    latency_p50_s: float
    latency_p95_s: float
    throughput_rps: float
    duration_s: float
    energy_per_request_j: float
    mean_batch: float
    eco_share: float
    dead_nodes: int
    #: Conditional-delay rate of the wait tail (theta).
    delay_rate: float = 0.0
    atoms: Tuple[LatencyAtom, ...] = field(default_factory=tuple)

    def survival(self, t: float) -> float:
        """``P(latency > t)`` under the closed-form sojourn law."""
        return self.survival_law()(t)

    def survival_law(self) -> Callable[[float], float]:
        """:meth:`survival` as a function of ``t``, for callers that
        evaluate it many times: the per-atom products are taken once.

        ``p * C * exp(-theta x)`` multiplies left to right, so the atom
        weight ``p * C`` is the same float whether taken here or per call.
        """
        if not self.stable:
            return lambda t: 1.0
        rate = self.delay_rate
        atoms = [(atom.latency_s, atom.probability,
                  atom.probability * self.wait_probability)
                 for atom in self.atoms]

        def survival(t: float) -> float:
            total = 0.0
            for latency_s, probability, tail in atoms:
                x = t - latency_s
                if x < 0:
                    total += probability
                elif rate > 0:
                    total += tail * math.exp(-rate * x)
            return total
        return survival

    def percentile(self, q: float) -> float:
        """The q-quantile (q in [0, 1)) of latency, by bisection."""
        if not 0.0 <= q < 1.0:
            raise ConfigurationError(f"quantile out of range: {q}")
        if not self.stable or not self.atoms:
            return math.inf
        survival = self.survival_law()
        target = 1.0 - q
        lo, hi = 0.0, max(atom.latency_s for atom in self.atoms)
        while survival(hi) > target:
            hi *= 2.0
            if hi > 1e9:
                return math.inf
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if survival(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe summary (stable keys; rounded like ServeReport)."""
        return {
            "stable": self.stable,
            "servers": self.servers,
            "offered_load": round(self.offered_load, 6),
            "utilization": round(self.utilization, 6),
            "wait_probability": round(self.wait_probability, 6),
            "mean_wait_ms": round(self.mean_wait_s * 1e3, 6),
            "mean_latency_ms": round(self.mean_latency_s * 1e3, 6),
            "latency_p50_ms": round(self.latency_p50_s * 1e3, 6),
            "latency_p95_ms": round(self.latency_p95_s * 1e3, 6),
            "throughput_rps": round(self.throughput_rps, 6),
            "duration_s": round(self.duration_s, 9),
            "energy_per_request_uj": round(
                self.energy_per_request_j * 1e6, 6),
            "mean_batch": round(self.mean_batch, 6),
            "eco_share": round(self.eco_share, 6),
            "dead_nodes": self.dead_nodes,
        }


class CapacityModel:
    """Analytic fast path over one service book (one node archetype)."""

    def __init__(self, book: ServiceBook):
        self.book = book
        self._shape_cache: Dict[Tuple[int, str, Tuple[Tuple[str, float],
                                                      ...]],
                                Tuple[KernelShape, ...]] = {}

    def _shapes(self, mix: Dict[str, float], iterations: int,
                tier: str) -> Tuple[KernelShape, ...]:
        key = (iterations, tier, tuple(sorted(mix.items())))
        cached = self._shape_cache.get(key)
        if cached is None:
            cached = kernel_shapes(self.book, mix, iterations, tier)
            self._shape_cache[key] = cached
        return cached

    def predict(self, inputs: CapacityInputs) -> CapacityPrediction:
        """Steady-state prediction for one scenario."""
        fast = self._shapes(inputs.mix, inputs.iterations, "fast")
        eco = self._shapes(inputs.mix, inputs.iterations, "eco") \
            if "eco" in self.book.tiers() else fast
        lam = inputs.arrival_rate
        n = inputs.requests

        # Fault effects need a batch-compute scale; seed it from the
        # unbatched fast-tier mean and refine inside the fixed point.
        mean_compute = sum(s.probability * s.warm_compute_s for s in fast)
        mean_active = sum(s.probability * s.active_w for s in fast)
        faults = fault_effect(inputs.fault_plans, inputs.nodes,
                              mean_compute, mean_active)
        alive = inputs.nodes - faults.dead_nodes
        if alive < 1:
            return self._saturated(inputs, faults, servers=0)

        stretch = faults.compute_stretch
        fast_active = sum(s.probability * s.active_w for s in fast)
        eco_active = sum(s.probability * s.active_w for s in eco) \
            if eco is not fast else None
        cap = power_cap_effect(inputs.power_budget_w, self.book.host_power,
                               self.book.idle_power, alive, float(alive),
                               fast_active, eco_active)
        servers = min(alive, cap.server_cap) if cap.server_cap else 0
        if servers < 1:
            return self._saturated(inputs, faults, servers=0)
        eco_share = cap.eco_share

        wq = 0.0
        queue_len = 0.0
        shapes = fast
        sizes: Dict[str, float] = {}
        occupancy = 0.0
        queue: Optional[MMkQueue] = None
        for _ in range(_ECO_ROUNDS):
            shapes = blend_shapes(fast, eco, eco_share)
            wq, queue_len, occupancy, sizes = self._solve_queue(
                shapes, lam, servers, stretch, inputs.max_batch)
            if not math.isfinite(wq):
                # Saturated even at full batching: the true capacity
                # limit, not the singleton-batch one.
                return self._saturated(inputs, faults, servers=servers,
                                       occupancy=occupancy)
            queue = MMkQueue(arrival_rate=lam, service_rate=1.0 / occupancy,
                             servers=servers)
            # Refresh the eco split against the expected concurrency.
            cap = power_cap_effect(inputs.power_budget_w,
                                   self.book.host_power,
                                   self.book.idle_power, alive,
                                   queue.offered_load, fast_active,
                                   eco_active)
            new_servers = min(alive, cap.server_cap) if cap.server_cap else 0
            if new_servers < 1:
                return self._saturated(inputs, faults, servers=0)
            if new_servers == servers \
                    and abs(cap.eco_share - eco_share) < _ECO_TOL:
                break
            servers = new_servers
            eco_share = cap.eco_share
            shapes = blend_shapes(fast, eco, eco_share)

        # Latency atoms: a request in a batch of size b experiences the
        # whole batch service (members share start and end), cold start
        # included when the lead switched the resident binary.  The
        # experienced size is *size-biased* — requests land in big
        # batches in proportion to their size.  With geometric
        # batchmate counts of mean m the size-biased mean batch is
        # 1 + 2m, while the batch-weighted mean (1 + m) keeps pricing
        # occupancy and energy, where cold costs amortize per batch.
        atoms: List[LatencyAtom] = []
        for s in shapes:
            mates = min(float(inputs.max_batch - 1),
                        2.0 * (sizes[s.kernel] - 1.0))
            base = (1.0 + mates) * s.warm_at(stretch)
            p_switch = switch_probability(s)
            if p_switch > 0:
                atoms.append(LatencyAtom(s.probability * p_switch,
                                         base + s.cold_s))
            if p_switch < 1:
                atoms.append(LatencyAtom(s.probability * (1 - p_switch),
                                         base))
        mean_service_lat = sum(a.probability * a.latency_s for a in atoms)
        # Ladder overheads block whole batches: the requests of the
        # affected first batches (plus one extra wait for requeued
        # batches off dying nodes) see them; the mean amortizes.
        mean_batch = sum(s.probability * sizes[s.kernel] for s in shapes)
        overhead_lat = (faults.overhead_s * mean_batch
                        + faults.requeued_batches * mean_batch * wq) / n
        mean_latency = wq + mean_service_lat + overhead_lat

        duration = n / lam + mean_latency + faults.overhead_s / max(
            1, servers)
        throughput = n / duration
        busy = n * occupancy + faults.overhead_s
        utilization = busy / (inputs.nodes * duration)
        energy = sum(
            s.probability * (s.warm_energy_at(stretch)
                             + switch_probability(s) * s.cold_energy_j
                             / sizes[s.kernel])
            for s in shapes) + faults.overhead_energy_j / n

        prediction = CapacityPrediction(
            stable=True,
            servers=servers,
            offered_load=queue.offered_load,
            utilization=utilization,
            wait_probability=queue.wait_probability,
            mean_wait_s=wq,
            mean_latency_s=mean_latency,
            latency_p50_s=0.0,
            latency_p95_s=0.0,
            throughput_rps=throughput,
            duration_s=duration,
            energy_per_request_j=energy,
            mean_batch=mean_batch,
            eco_share=eco_share,
            dead_nodes=faults.dead_nodes,
            delay_rate=(queue.wait_probability / wq if wq > 0 else 0.0),
            atoms=tuple(atoms))
        prediction.latency_p50_s = prediction.percentile(0.50)
        prediction.latency_p95_s = prediction.percentile(0.95)
        return prediction

    def _solve_queue(self, shapes: Tuple[KernelShape, ...], lam: float,
                     servers: int, stretch: float, max_batch: int):
        """Self-consistent ``(wait, queue length)`` under coalescing.

        The expected queue length sets the batch sizes (deeper queues
        coalesce more), which set the occupancy, which sets the wait,
        which — by Little's law — sets the queue length back.  The gap
        ``h(L) = lam Wq(L) - L`` is strictly decreasing (longer queues
        mean bigger batches, lower occupancy, shorter waits), so the
        unique fixed point falls to bisection.  Past the length where
        every kernel's batch is capped the wait is constant and the
        root is ``lam Wq`` directly.

        Returns ``(wq, queue length, occupancy, sizes)``.  The wait is
        infinite when the class is saturated even at full batching —
        the true capacity limit, priced by that occupancy.  A queue
        unstable at singleton batches may still stabilize itself by
        coalescing; that metastable high-load regime is exactly where
        the DES keeps completing while a naive M/M/k check declares
        overload.
        """
        probabilities = [s.probability for s in shapes]
        # Per shape, what no queue length changes: its mix share, warm
        # service and switch-weighted cold start (what a batch amortizes).
        terms = [(s.probability, s.warm_at(stretch),
                  switch_probability(s) * s.cold_s) for s in shapes]

        def wait_at(queue_len: float):
            """``(wq, occupancy, sizes)`` at an assumed queue length.

            The occupancy is the per-request server time: warm service
            plus the cold start amortized over the coalesced batch.  The
            wait is the M/M/k mean scaled by Allen–Cunneen (the
            deterministic per-kernel mixture's variability) and by the
            calibrated batch-drain factor; infinite when the class is
            unstable at these batch sizes.
            """
            sizes = batch_sizes(probabilities, queue_len, max_batch)
            values = [(p, warm + cold / size)
                      for (p, warm, cold), size in zip(terms, sizes)]
            occupancy = sum(p * v for p, v in values)
            utilization, wait = mmk_wait(lam, 1.0 / occupancy, servers)
            if not utilization < 1.0:
                return math.inf, occupancy, sizes
            var = sum(p * (v - occupancy) ** 2 for p, v in values)
            scv = var / (occupancy * occupancy) if occupancy > 0 else 0.0
            return wait * allen_cunneen_factor(1.0, scv) \
                * batch_drain_factor(servers, utilization), occupancy, sizes

        cap_len = (max_batch - 1) / min(probabilities) + 1.0
        queue_len = cap_len
        wq, occupancy, sizes = wait_at(cap_len)
        if math.isfinite(wq):
            if lam * wq >= cap_len:
                queue_len = lam * wq
            else:
                lo, hi = 0.0, cap_len
                for _ in range(_BISECT_ITERS):
                    mid = 0.5 * (lo + hi)
                    if lam * wait_at(mid)[0] > mid:
                        lo = mid
                    else:
                        hi = mid
                # Converge onto the stable side of the root.
                queue_len = hi
            wq, occupancy, sizes = wait_at(queue_len)
        return wq, queue_len, occupancy, \
            {s.kernel: size for s, size in zip(shapes, sizes)}

    def _saturated(self, inputs: CapacityInputs, faults: FaultEffect,
                   servers: int,
                   occupancy: Optional[float] = None) -> CapacityPrediction:
        """An unstable (or dead) class: report the saturation point."""
        if servers > 0 and occupancy:
            throughput = servers / occupancy
            duration = inputs.requests / throughput
        else:
            throughput = 0.0
            duration = math.inf
        return CapacityPrediction(
            stable=False,
            servers=servers,
            offered_load=math.inf,
            utilization=1.0 if servers else 0.0,
            wait_probability=1.0,
            mean_wait_s=math.inf,
            mean_latency_s=math.inf,
            latency_p50_s=math.inf,
            latency_p95_s=math.inf,
            throughput_rps=throughput,
            duration_s=duration,
            energy_per_request_j=0.0,
            mean_batch=float(inputs.max_batch),
            eco_share=0.0,
            dead_nodes=faults.dead_nodes)
