"""Closed-form M/M/k queueing: Erlang B/C and waiting-time laws.

The analytic fast path models each node class of the serving fleet as
an M/M/k queue — Poisson arrivals at rate ``lambda``, ``k`` parallel
servers, exponential service at rate ``mu`` each — and reads its
steady-state observables off the classical closed forms:

* **Erlang B** ``B(k, a)`` — blocking probability of the loss system,
  computed with the numerically stable recurrence
  ``B(0) = 1``, ``B(j) = a B(j-1) / (j + a B(j-1))`` (no factorials,
  no overflow at large ``k``);
* **Erlang C** ``C(k, a) = k B / (k - a (1 - B))`` — probability an
  arrival waits (all servers busy);
* **mean wait** ``Wq = C / (k mu - lambda)`` and Little's law
  ``Lq = lambda Wq``;
* the **waiting-time law**: the delay is 0 with probability ``1 - C``
  and exponential with rate ``theta = k mu - lambda`` otherwise, so
  ``P(D > t) = C exp(-theta t)`` — which gives closed-form wait
  percentiles and, convolved with the service mixture, latency
  percentiles (:mod:`repro.capacity.model`).

Deterministic per-kernel service times make the real system M/G/k; the
model corrects the mean wait with the Allen–Cunneen scaling
``(C2a + C2s) / 2`` (:func:`allen_cunneen_factor`), the standard
two-moment approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError


def erlang_b(servers: int, offered: float) -> float:
    """Erlang-B blocking probability ``B(servers, offered)``.

    *offered* is the offered load ``a = lambda / mu`` in erlangs.
    """
    if servers < 1:
        raise ConfigurationError(f"need >= 1 servers, got {servers}")
    if offered < 0:
        raise ConfigurationError(f"negative offered load {offered}")
    if offered == 0.0:
        return 0.0
    blocking = 1.0
    for j in range(1, servers + 1):
        blocking = offered * blocking / (j + offered * blocking)
    return blocking


def erlang_c(servers: int, offered: float) -> float:
    """Erlang-C waiting probability ``C(servers, offered)``.

    Defined for stable systems (``offered < servers``); saturated or
    overloaded systems wait with probability 1.
    """
    if offered >= servers:
        return 1.0
    blocking = erlang_b(servers, offered)
    return servers * blocking / (servers - offered * (1.0 - blocking))


def allen_cunneen_factor(arrival_scv: float, service_scv: float) -> float:
    """The two-moment G/G/k mean-wait scaling ``(C2a + C2s) / 2``."""
    if arrival_scv < 0 or service_scv < 0:
        raise ConfigurationError("squared coefficients of variation "
                                 "cannot be negative")
    return (arrival_scv + service_scv) / 2.0


#: Calibrated constants of :func:`batch_drain_factor` (see docstring).
DRAIN_COEF = 1.3
DRAIN_RHO_EXP = 0.4
DRAIN_SERVER_EXP = 0.35


def batch_drain_factor(servers: int, utilization: float) -> float:
    """Residual mean-wait scaling for the batching, near-deterministic fleet.

    Two-moment scalings (Allen–Cunneen) assume head-of-line service of
    single requests.  The DES fleet drains differently: a freeing node
    absorbs every queued same-kernel request in one batch, and the
    per-kernel service times are deterministic, so both the delay
    probability and the conditional delay sit well below the M/M/k (and
    even the M/D/k) laws — the gap widens with more servers and deeper
    queues.  This factor is the calibrated remainder,

    ``min(1, 1.3 (1 - rho)^0.4 / k^0.35)``,

    fitted once against seeded :mod:`repro.serve` runs across
    ``k in {2, 4, 6}`` and ``rho in [0.34, 0.97]`` (mean-wait ratios
    within ~25 % everywhere, which keeps the gated mean-latency error
    under 10 % since waiting is a minor latency component below
    saturation).  The pinned grid behind ``python -m repro capacity
    validate`` re-checks the calibration on every CI run.
    """
    if servers < 1:
        raise ConfigurationError(f"need >= 1 servers, got {servers}")
    if utilization >= 1.0:
        return 1.0
    rho = max(utilization, 0.0)
    return min(1.0, DRAIN_COEF * (1.0 - rho) ** DRAIN_RHO_EXP
               / servers ** DRAIN_SERVER_EXP)


def mmk_wait(arrival_rate: float, service_rate: float,
             servers: int) -> Tuple[float, float]:
    """``(utilization, mean wait)`` of an M/M/k station.

    :class:`MMkQueue`'s ``utilization`` and ``mean_wait``, computed in
    one pass without building (and validating) the station: the
    capacity model's bisections evaluate thousands of them.
    """
    offered = arrival_rate / service_rate
    utilization = offered / servers
    if not utilization < 1.0:
        return utilization, math.inf
    return utilization, erlang_c(servers, offered) \
        / (servers * service_rate - arrival_rate)


@dataclass(frozen=True)
class MMkQueue:
    """One M/M/k station: Poisson(lambda) arrivals, k Exp(mu) servers."""

    arrival_rate: float
    service_rate: float
    servers: int

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ConfigurationError(
                f"negative arrival rate {self.arrival_rate}")
        if self.service_rate <= 0:
            raise ConfigurationError(
                f"service rate must be positive, got {self.service_rate}")
        if self.servers < 1:
            raise ConfigurationError(f"need >= 1 servers, got {self.servers}")

    @property
    def offered_load(self) -> float:
        """Offered load ``a = lambda / mu`` (erlangs)."""
        return self.arrival_rate / self.service_rate

    @property
    def utilization(self) -> float:
        """Per-server utilization ``rho = a / k``."""
        return self.offered_load / self.servers

    @property
    def stable(self) -> bool:
        """Whether the queue has a steady state (``rho < 1``)."""
        return self.utilization < 1.0

    @property
    def wait_probability(self) -> float:
        """Erlang-C probability an arrival finds every server busy."""
        return erlang_c(self.servers, self.offered_load)

    @property
    def delay_rate(self) -> float:
        """Conditional-delay rate ``theta = k mu - lambda``."""
        return self.servers * self.service_rate - self.arrival_rate

    @property
    def mean_wait(self) -> float:
        """Mean queueing delay ``Wq = C / theta`` (infinite if unstable)."""
        return mmk_wait(self.arrival_rate, self.service_rate,
                        self.servers)[1]

    @property
    def mean_queue_length(self) -> float:
        """``Lq = lambda Wq`` by Little's law."""
        wq = self.mean_wait
        return self.arrival_rate * wq if math.isfinite(wq) else math.inf

    @property
    def mean_sojourn(self) -> float:
        """Mean time in system ``W = Wq + 1/mu``."""
        return self.mean_wait + 1.0 / self.service_rate

    def wait_survival(self, t: float) -> float:
        """``P(D > t)`` of the queueing delay (``C e^{-theta t}``)."""
        if t < 0:
            return 1.0
        if not self.stable:
            return 1.0
        return self.wait_probability * math.exp(-self.delay_rate * t)

    def wait_percentile(self, q: float) -> float:
        """The q-quantile (q in [0, 1)) of the queueing delay, exactly."""
        if not 0.0 <= q < 1.0:
            raise ConfigurationError(f"quantile out of range: {q}")
        if not self.stable:
            return math.inf
        c = self.wait_probability
        if q <= 1.0 - c:
            return 0.0
        return -math.log((1.0 - q) / c) / self.delay_rate
