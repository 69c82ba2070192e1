"""Dispatch policies, admission control, and batch coalescing.

The scheduler owns the central request queue.  A policy orders it:

========================  =====================================================
policy                    picks
========================  =====================================================
``fifo``                  the oldest request
``sjf``                   shortest expected service (priced through the
                          offload cost model — the analytic service book)
``edf``                   earliest absolute deadline (deadline-less
                          requests sort last)
``power-cap``             FIFO order, but dispatch is gated so the fleet
                          power draw stays under a budget; when the fast
                          operating point does not fit, the dispatch is
                          retried at the throttled *eco* envelope point
                          before being deferred
========================  =====================================================

Admission control bounds the queue: beyond ``queue_capacity`` pending
requests, new arrivals are dropped (and counted).  Batch coalescing
pulls up to ``max_batch`` same-kernel requests out of the queue in one
dispatch, so the SPI binary upload and accelerator boot are paid once
per batch instead of once per request.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.serve.fleet import ServiceBook
from repro.serve.workload import Request

#: Power-comparison slack: one part in a million, absorbing float noise
#: without ever letting a whole extra node through the gate.
POWER_EPSILON = 1e-6

#: Requeued requests keep arrival order (ties broken by request id).
_ARRIVAL_ORDER = operator.attrgetter("arrival_s", "request_id")


class Policy(enum.Enum):
    """The built-in dispatch policies."""

    FIFO = "fifo"
    SJF = "sjf"
    EDF = "edf"
    POWER_CAP = "power-cap"


#: A registered policy picks the queue index to dispatch next.
PolicySelect = Callable[["Scheduler", float], int]

_POLICY_REGISTRY: Dict[str, PolicySelect] = {}


def register_policy(name: str, select: PolicySelect) -> None:
    """Register a named dispatch policy (``SchedulerConfig.policy=name``).

    *select* receives the live :class:`Scheduler` (queue + service book)
    and the simulation time, and returns the index of the next request
    to dispatch.  Built-in :class:`Policy` names cannot be shadowed.
    """
    if name in Policy._value2member_map_:
        raise ConfigurationError(
            f"cannot shadow the built-in policy {name!r}")
    _POLICY_REGISTRY[name] = select


def registered_policies() -> Tuple[str, ...]:
    """Every currently registered extension policy name, sorted."""
    return tuple(sorted(_POLICY_REGISTRY))


def policy_name(policy: Union[Policy, str]) -> str:
    """The report-facing name of a built-in or registered policy."""
    return policy.value if isinstance(policy, Policy) else policy


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs of the scheduler.

    ``policy`` takes a built-in :class:`Policy` member or the name of an
    extension policy registered through :func:`register_policy` (the
    name is resolved when the :class:`Scheduler` is constructed, so
    registration may happen after the config is built).
    """

    policy: Union[Policy, str] = Policy.FIFO
    #: Pending-queue bound; 0 = unbounded (no admission control).
    queue_capacity: int = 0
    #: Same-kernel requests coalesced per dispatch.
    max_batch: int = 8
    #: Fleet power budget in watts (None = ungated).
    power_budget_w: Optional[float] = None
    #: Drop requests whose deadline already passed at dispatch time.
    drop_late: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.policy, str) \
                and self.policy in Policy._value2member_map_:
            # Accept built-in policies by name, normalized to the enum.
            object.__setattr__(self, "policy", Policy(self.policy))
        if self.queue_capacity < 0:
            raise ConfigurationError(
                f"negative queue capacity: {self.queue_capacity}")
        if self.max_batch < 1:
            raise ConfigurationError(f"max batch must be >= 1: {self.max_batch}")
        if self.power_budget_w is not None and self.power_budget_w <= 0:
            raise ConfigurationError(
                f"power budget must be > 0: {self.power_budget_w}")
        if self.policy is Policy.POWER_CAP and self.power_budget_w is None:
            raise ConfigurationError(
                "the power-cap policy needs a power budget")


class Scheduler:
    """Orders the queue, admits arrivals, and coalesces batches."""

    def __init__(self, config: SchedulerConfig, book: ServiceBook):
        policy = config.policy
        if isinstance(policy, str) and policy not in _POLICY_REGISTRY:
            known = ", ".join(
                tuple(Policy._value2member_map_) + registered_policies())
            raise ConfigurationError(
                f"unknown scheduler policy {policy!r}; known: {known}")
        self.config = config
        self.book = book
        self.queue: List[Request] = []
        self.dropped: List[Tuple[Request, str]] = []
        self._requeued: set = set()
        #: FIFO order (plain or power-capped): the head always goes next.
        self._fifo = policy in (Policy.FIFO, Policy.POWER_CAP)

    # -- admission ---------------------------------------------------------------

    def submit(self, request: Request) -> bool:
        """Admit *request* into the queue; False = dropped (queue full)."""
        capacity = self.config.queue_capacity
        if capacity and len(self.queue) >= capacity:
            self.dropped.append((request, "queue-full"))
            return False
        self.queue.append(request)
        return True

    def requeue(self, batch: List[Request]) -> None:
        """Put a failed node's batch back at the head of the queue.

        Requeued requests keep their original arrival time (wait
        percentiles and EDF ordering span recovery retries), and the
        requeued head region stays sorted by arrival — so repeated
        requeues from different node deaths can never invert the
        original order.
        """
        requeued = self._requeued
        for request in batch:
            requeued.add(request.request_id)
        queue = self.queue
        head = 0
        while head < len(queue) and queue[head].request_id in requeued:
            head += 1
        queue[:head] = sorted(queue[:head] + list(batch), key=_ARRIVAL_ORDER)

    def shed(self, down_to: int, reason: str = "shed") -> List[Request]:
        """Drop the oldest queued requests until *down_to* remain.

        Overload control sheds from the head: the oldest requests are
        the ones whose deadlines are already at risk.  Victims land in
        :attr:`dropped` under *reason* and are returned so the engine
        can keep closed-loop client chains alive.
        """
        victims: List[Request] = []
        while len(self.queue) > down_to:
            victim = self.queue.pop(0)
            self.dropped.append((victim, reason))
            victims.append(victim)
        return victims

    # -- ordering ----------------------------------------------------------------

    def _select(self, now: float,
                indices: Optional[List[int]] = None) -> int:
        """Index of the next request to dispatch (queue must be non-empty).

        Decides for SJF, EDF and registered policies; ``take_batch``
        picks the first eligible request itself under FIFO and
        POWER_CAP and never calls this for them.  *indices* restricts
        the choice to a subset of queue positions (strict routing hands
        each node only the kernels it serves); None considers the whole
        queue.  Extension policies order the full queue — when their
        pick falls outside the subset, the earliest eligible request
        goes instead.
        """
        policy = self.config.policy
        if isinstance(policy, str):
            index = _POLICY_REGISTRY[policy](self, now)
            if not 0 <= index < len(self.queue):
                raise ConfigurationError(
                    f"policy {policy!r} selected index {index} outside "
                    f"the queue of {len(self.queue)}")
            if indices is not None and index not in indices:
                return indices[0]
            return index
        candidates = indices if indices is not None \
            else range(len(self.queue))
        if policy is Policy.SJF:
            return min(candidates,
                       key=lambda i: (self.book.estimate(self.queue[i]), i))
        # EDF: deadline-less requests sort after every deadline.
        return min(candidates,
                   key=lambda i: (self.queue[i].deadline_s
                                  if self.queue[i].deadline_s is not None
                                  else float("inf"), i))

    def take_batch(self, now: float,
                   allow: Optional[Callable[[Request], bool]] = None,
                   ) -> Tuple[List[Request], List[Request]]:
        """Pull the next batch out of the queue.

        Returns ``(batch, late)``: the coalesced same-kernel batch to
        dispatch, and the requests dropped for being past their deadline
        (only with ``drop_late``).  The batch may be empty when the
        whole queue was late.

        *allow* restricts eligibility (strict routing: a node only
        takes kernels routed to its archetype); requests it rejects
        stay queued untouched.  ``None`` considers everything — the
        exact pre-routing behavior.
        """
        late: List[Request] = []
        if self.config.drop_late:
            keep = []
            for request in self.queue:
                if request.deadline_s is not None \
                        and now > request.deadline_s:
                    late.append(request)
                    self.dropped.append((request, "late"))
                else:
                    keep.append(request)
            self.queue = keep
        queue = self.queue
        if not queue:
            return [], late
        if allow is None:
            pick = 0 if self._fifo else self._select(now)
        elif self._fifo:
            # The earliest eligible request, found without an index list.
            pick = next((i for i, request in enumerate(queue)
                         if allow(request)), None)
            if pick is None:
                return [], late
        else:
            indices = [i for i, request in enumerate(queue)
                       if allow(request)]
            if not indices:
                return [], late
            pick = self._select(now, indices)
        lead = queue.pop(pick)
        kernel = lead.kernel
        batch = [lead]
        room = self.config.max_batch - 1
        index = 0
        while room and index < len(queue):
            if queue[index].kernel == kernel:
                batch.append(queue.pop(index))
                room -= 1
            else:
                index += 1
        return batch, late

    # -- the power gate ----------------------------------------------------------

    def power_allows(self, current_w: float, idle_w: float,
                     active_w: float) -> bool:
        """Whether activating one node fits under the budget.

        *current_w* is the fleet draw right now, *idle_w* the candidate
        node's current (idle) draw, *active_w* its draw while serving.
        """
        budget = self.config.power_budget_w
        if budget is None:
            return True
        projected = current_w - idle_w + active_w
        return projected <= budget * (1.0 + POWER_EPSILON)

    def tier_for(self, current_w: float, idle_w: float,
                 fast_w: float, eco_w: float) -> Optional[str]:
        """The service tier a dispatch can run at under the budget.

        Prefers the full-speed envelope point; falls back to the
        throttled *eco* point; ``None`` defers the dispatch entirely.
        Without a budget every dispatch runs fast.
        """
        if self.config.power_budget_w is None:
            return "fast"
        if self.power_allows(current_w, idle_w, fast_w):
            return "fast"
        if self.config.policy is Policy.POWER_CAP \
                and self.power_allows(current_w, idle_w, eco_w):
            return "eco"
        return None
