"""Serving-reality corrections layered on the M/M/k core.

The DES fleet is not a textbook queue: requests coalesce into
same-kernel batches (cold costs amortize, batchmates share the service
interval), the power-cap scheduler throttles nodes onto the eco tier
when the fleet budget is tight, and fault plans burn capacity on
watchdogs, reboots and dead nodes.  This module prices each effect from
the same inputs the DES uses — the
:class:`~repro.serve.fleet.ServiceBook`, the
:class:`~repro.serve.scheduler.SchedulerConfig` and the
:class:`~repro.faults.plan.FaultPlan` taxonomy — so the analytic model
and the simulator disagree only in stochastic noise, not in pricing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.resilient import RetryPolicy
from repro.serve.fleet import LADDER, ServiceBook


@dataclass(frozen=True)
class KernelShape:
    """Per-(kernel, tier) service statistics of one request."""

    kernel: str
    probability: float          #: share of the arrival mix
    warm_io_s: float            #: per-request io+sync (not drooped)
    warm_compute_s: float       #: per-request compute (droop-stretched)
    cold_s: float               #: per-batch cold start (upload + boot)
    warm_io_energy_j: float
    warm_compute_energy_j: float
    cold_energy_j: float
    active_w: float             #: node draw while serving this kernel

    @property
    def warm_s(self) -> float:
        """Warm per-request service seconds at nominal clock."""
        return self.warm_io_s + self.warm_compute_s

    def warm_at(self, compute_stretch: float) -> float:
        """Warm service with the compute portion stretched (brownout)."""
        return self.warm_io_s + self.warm_compute_s * compute_stretch

    def warm_energy_at(self, compute_stretch: float) -> float:
        """Warm energy with the compute share stretched, mirroring
        :meth:`~repro.serve.fleet.ServiceProfile.request_energy`."""
        return self.warm_io_energy_j \
            + self.warm_compute_energy_j * compute_stretch


def kernel_shapes(book: ServiceBook, mix: Dict[str, float],
                  iterations: int, tier: str) -> Tuple[KernelShape, ...]:
    """Price the arrival mix through *book* at *tier*.

    Mix weights are normalized; kernels appear in sorted-name order so
    downstream sums are deterministic.
    """
    total = sum(mix.values())
    if total <= 0:
        raise ConfigurationError(f"arrival mix has no mass: {mix}")
    shapes = []
    for kernel in sorted(mix):
        weight = mix[kernel]
        if weight < 0:
            raise ConfigurationError(
                f"negative mix weight for {kernel!r}: {weight}")
        if weight == 0:
            continue
        profile = book.profile(kernel, tier)
        shapes.append(KernelShape(
            kernel=kernel,
            probability=weight / total,
            warm_io_s=profile.unit_io_time * iterations,
            warm_compute_s=profile.unit_compute_time * iterations,
            cold_s=profile.cold_time,
            warm_io_energy_j=profile.unit_io_energy * iterations,
            warm_compute_energy_j=profile.unit_compute_energy * iterations,
            cold_energy_j=profile.cold_energy,
            active_w=profile.active_power))
    return tuple(shapes)


def blend_shapes(fast: Sequence[KernelShape], eco: Sequence[KernelShape],
                 eco_share: float) -> Tuple[KernelShape, ...]:
    """Mix fast- and eco-tier shapes by the expected eco dispatch share."""
    if not 0.0 <= eco_share <= 1.0:
        raise ConfigurationError(f"eco share out of range: {eco_share}")
    if eco_share == 0.0:
        return tuple(fast)
    blended = []
    for f, e in zip(fast, eco):
        w = eco_share
        blended.append(KernelShape(
            kernel=f.kernel,
            probability=f.probability,
            warm_io_s=(1 - w) * f.warm_io_s + w * e.warm_io_s,
            warm_compute_s=(1 - w) * f.warm_compute_s + w * e.warm_compute_s,
            cold_s=(1 - w) * f.cold_s + w * e.cold_s,
            warm_io_energy_j=(1 - w) * f.warm_io_energy_j
            + w * e.warm_io_energy_j,
            warm_compute_energy_j=(1 - w) * f.warm_compute_energy_j
            + w * e.warm_compute_energy_j,
            cold_energy_j=(1 - w) * f.cold_energy_j + w * e.cold_energy_j,
            active_w=(1 - w) * f.active_w + w * e.active_w))
    return tuple(blended)


# -- batch coalescing ------------------------------------------------------------

def batch_sizes(probabilities: Sequence[float], queue_length: float,
                max_batch: int) -> List[float]:
    """Expected coalesced batch size per lead kernel, given each
    kernel's mix share (in that order).

    The scheduler pulls every queued same-kernel request (up to
    ``max_batch``) behind the lead; with ``Lq`` requests queued on
    average, a lead of kernel ``j`` finds about ``Lq p_j`` batchmates.
    """
    if max_batch < 1:
        raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
    room = float(max_batch - 1)
    length = max(0.0, queue_length)
    return [1.0 + min(room, length * p) for p in probabilities]


def switch_probability(shape: KernelShape) -> float:
    """P(the serving node's resident binary is not this kernel).

    Consecutive batches on a node are approximately independent draws
    from the lead-kernel distribution, so a lead of kernel ``j`` pays
    the cold cost with probability ``1 - p_j``.
    """
    return 1.0 - shape.probability


# -- the eco power-cap tier ------------------------------------------------------

@dataclass(frozen=True)
class PowerCapEffect:
    """What a fleet power budget does to the node class."""

    #: Max nodes simultaneously serving on the fast tier.
    fast_slots: int
    #: Further nodes that still fit on the eco tier.
    eco_slots: int
    #: Fraction of dispatches expected to run eco.
    eco_share: float

    @property
    def server_cap(self) -> int:
        """Concurrency the budget admits (beyond it, dispatch defers)."""
        return self.fast_slots + self.eco_slots


def power_cap_effect(power_budget_w: Optional[float], host_power_w: float,
                     idle_w: float, servers: int, expected_busy: float,
                     fast_active_w: float,
                     eco_active_w: Optional[float]) -> PowerCapEffect:
    """Size the fast/eco split under a fleet power budget.

    Mirrors :meth:`repro.serve.scheduler.Scheduler.tier_for`: a dispatch
    runs fast while the fleet draw (host + every node's idle draw +
    the busy nodes' increments) stays under budget, falls back to eco
    when only the throttled increment fits, and defers otherwise.
    """
    if power_budget_w is None:
        return PowerCapEffect(fast_slots=servers, eco_slots=0,
                              eco_share=0.0)
    floor_w = host_power_w + servers * idle_w
    headroom = power_budget_w - floor_w
    fast_step = max(fast_active_w - idle_w, 1e-12)
    fast_slots = min(servers, max(0, int(headroom / fast_step + 1e-9)))
    eco_slots = 0
    if eco_active_w is not None and eco_active_w < fast_active_w:
        eco_step = max(eco_active_w - idle_w, 1e-12)
        left = headroom - fast_slots * fast_step
        eco_slots = min(servers - fast_slots,
                        max(0, int(left / eco_step + 1e-9)))
    busy = min(expected_busy, float(fast_slots + eco_slots))
    if busy <= 0 or busy <= fast_slots:
        share = 0.0
    else:
        share = (busy - fast_slots) / busy
    return PowerCapEffect(fast_slots=fast_slots, eco_slots=eco_slots,
                          eco_share=share)


# -- fault plans -----------------------------------------------------------------

@dataclass(frozen=True)
class FaultEffect:
    """Availability-discounted capacity under a set of fault plans."""

    #: Nodes whose recovery ladder exhausts on first contact (3+ faults).
    dead_nodes: int
    #: Mean compute stretch ``E[1/droop]`` across surviving nodes.
    compute_stretch: float
    #: One-time blocking overhead (watchdogs + reboots), whole fleet.
    overhead_s: float
    #: Energy burned by that overhead.
    overhead_energy_j: float
    #: Batches lost to dying nodes and requeued (adds one extra wait).
    requeued_batches: int


def fault_effect(plans: Optional[List[FaultPlan]], servers: int,
                 batch_compute_s: float, mean_active_w: float) -> FaultEffect:
    """Price the fleet's fault plans the way the node ladder replays them,
    with the same default :class:`RetryPolicy` timeouts.

    Plans cycle across node indices exactly as
    :class:`~repro.serve.fleet.Fleet` assigns them.  Attempt faults
    (``boot-failure``, ``kernel-hang``) carry deterministic budgets: the
    ladder has ``len(LADDER)`` rungs, so a node whose combined budget
    reaches that count dies on its first batch (the batch requeues);
    smaller budgets cost watchdog/boot timeouts once per run.  Brownout
    droop stretches every surviving node's compute for the whole run.
    """
    if not plans:
        return FaultEffect(dead_nodes=0, compute_stretch=1.0,
                           overhead_s=0.0, overhead_energy_j=0.0,
                           requeued_batches=0)
    retry = RetryPolicy()
    dead = 0
    stretches = []
    overhead_s = 0.0
    overhead_j = 0.0
    requeued = 0
    rungs = len(LADDER)
    for index in range(servers):
        plan = plans[index % len(plans)]
        boot = hang = 0
        droop = 1.0
        for spec in plan.specs:
            if spec.kind is FaultKind.BOOT_FAILURE:
                boot = spec.count
            elif spec.kind is FaultKind.KERNEL_HANG:
                hang = spec.count
            elif spec.kind is FaultKind.BROWNOUT:
                droop = spec.droop
        if boot + hang >= rungs:
            dead += 1
            requeued += 1
            # The dying node still burns its ladder before giving up.
            hangs_spent = min(hang, rungs)
            boots_spent = min(boot, rungs - hangs_spent)
            watchdog = max(retry.watchdog_floor_s,
                           retry.watchdog_factor * batch_compute_s / droop)
            overhead_s += hangs_spent * watchdog \
                + boots_spent * retry.boot_timeout_s \
                + retry.boot_timeout_s  # the reboot rung's wait
            overhead_j += (hangs_spent * watchdog
                           + boots_spent * retry.boot_timeout_s) \
                * mean_active_w
            continue
        stretches.append(1.0 / droop)
        watchdog = max(retry.watchdog_floor_s,
                       retry.watchdog_factor * batch_compute_s / droop)
        node_overhead = hang * watchdog + boot * retry.boot_timeout_s
        if hang + boot >= 2:
            # The second failure pushes the ladder to its reboot rung.
            node_overhead += retry.boot_timeout_s
        overhead_s += node_overhead
        overhead_j += node_overhead * mean_active_w
    if not stretches:
        stretches = [1.0]
    return FaultEffect(
        dead_nodes=dead,
        compute_stretch=math.fsum(stretches) / len(stretches),
        overhead_s=overhead_s,
        overhead_energy_j=overhead_j,
        requeued_batches=requeued)
