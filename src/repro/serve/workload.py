"""Request streams for the serving runtime.

A :class:`Request` asks for one offload of a registered benchmark
kernel.  Workloads produce request streams three ways:

* **open-loop** — arrivals follow a seeded stochastic process regardless
  of completions: :class:`PoissonWorkload` (memoryless) and
  :class:`MmppWorkload` (two-state Markov-modulated Poisson, the classic
  bursty-traffic model);
* **closed-loop** — :class:`ClosedLoopWorkload`: N clients each keep one
  request in flight, thinking between completions;
* **trace replay** — :class:`TraceWorkload` replays a recorded JSON
  request log.

All randomness comes from one :class:`repro.units.Lcg` per workload
(the generator the fault injectors draw from too), so a given
(workload, seed) pair always produces the identical stream.  Relative
deadlines are expressed as a multiple of the kernel's expected warm
service time, resolved against a service estimator at generation time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.units import Lcg

#: Default kernel mix of generated workloads (name -> weight).
DEFAULT_MIX: Dict[str, float] = {"matmul": 4.0, "svm (RBF)": 3.0, "cnn": 1.0}

#: kernel -> expected warm service seconds (for relative deadlines).
Estimator = Callable[[str, int], float]


@dataclass
class Request:
    """One kernel-offload request in the serving stream."""

    request_id: int
    kernel: str
    arrival_s: float
    deadline_s: Optional[float] = None   #: absolute completion deadline
    iterations: int = 1
    client: Optional[int] = None         #: closed-loop client index

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (the trace-log row format)."""
        row: Dict[str, object] = {
            "id": self.request_id,
            "kernel": self.kernel,
            "t": self.arrival_s,
            "iterations": self.iterations,
        }
        if self.deadline_s is not None:
            row["deadline_s"] = self.deadline_s
        return row


def _validate_mix(mix: Dict[str, float]) -> Tuple[List[str], List[float]]:
    if not mix:
        raise ConfigurationError("workload kernel mix is empty")
    names = list(mix)
    weights = [float(mix[name]) for name in names]
    if any(w < 0 for w in weights) or sum(weights) <= 0:
        raise ConfigurationError(f"bad kernel mix weights: {mix}")
    return names, weights


class Workload:
    """Base class of all request streams."""

    #: Closed-loop workloads generate their stream interactively.
    closed_loop = False

    def arrivals(self, estimator: Estimator) -> List[Request]:
        """The pregenerated stream of an open-loop workload."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line summary for reports."""
        return type(self).__name__


class _GeneratedWorkload(Workload):
    """Shared machinery of the seeded open-loop generators."""

    def __init__(self, mix: Optional[Dict[str, float]] = None,
                 deadline_factor: Optional[float] = 25.0,
                 iterations: int = 1, seed: int = 1):
        self.mix = dict(mix) if mix is not None else dict(DEFAULT_MIX)
        self._names, self._weights = _validate_mix(self.mix)
        if deadline_factor is not None and deadline_factor <= 0:
            raise ConfigurationError(
                f"deadline factor must be > 0: {deadline_factor}")
        if iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1: {iterations}")
        self.deadline_factor = deadline_factor
        self.iterations = iterations
        self.seed = seed

    def _request(self, rng: Lcg, request_id: int, t: float,
                 estimator: Estimator) -> Request:
        kernel = rng.weighted_choice(self._names, self._weights)
        deadline = None
        if self.deadline_factor is not None:
            deadline = t + self.deadline_factor \
                * estimator(kernel, self.iterations)
        return Request(request_id=request_id, kernel=kernel, arrival_s=t,
                       deadline_s=deadline, iterations=self.iterations)


class PoissonWorkload(_GeneratedWorkload):
    """Memoryless open-loop arrivals at a fixed rate.

    Generation stops after *requests* arrivals or at *duration* seconds,
    whichever comes first (at least one bound must be given).
    """

    def __init__(self, rate: float, requests: Optional[int] = None,
                 duration: Optional[float] = None, **kwargs):
        super().__init__(**kwargs)
        if rate <= 0:
            raise ConfigurationError(f"arrival rate must be > 0: {rate}")
        if requests is None and duration is None:
            raise ConfigurationError(
                "Poisson workload needs a request count or a duration")
        if requests is not None and requests < 1:
            raise ConfigurationError(f"need >= 1 requests, got {requests}")
        self.rate = rate
        self.requests = requests
        self.duration = duration

    def arrivals(self, estimator: Estimator) -> List[Request]:
        rng = Lcg(self.seed)
        stream: List[Request] = []
        t = 0.0
        while True:
            t += rng.exponential(self.rate)
            if self.duration is not None and t > self.duration:
                break
            stream.append(self._request(rng, len(stream), t, estimator))
            if self.requests is not None and len(stream) >= self.requests:
                break
        return stream

    def describe(self) -> str:
        bound = (f"{self.requests} requests" if self.requests is not None
                 else f"{self.duration:g} s")
        return f"poisson({self.rate:g}/s, {bound})"


class MmppWorkload(_GeneratedWorkload):
    """Two-state Markov-modulated Poisson process (bursty arrivals).

    The process alternates between a *calm* and a *burst* state, each
    with its own Poisson arrival rate; dwell times in each state are
    exponential.  The textbook model for flash-crowd traffic.
    """

    def __init__(self, rates: Tuple[float, float] = (100.0, 1000.0),
                 dwell_s: Tuple[float, float] = (0.5, 0.1),
                 requests: Optional[int] = None,
                 duration: Optional[float] = None, **kwargs):
        super().__init__(**kwargs)
        if len(rates) != 2 or len(dwell_s) != 2:
            raise ConfigurationError("MMPP needs exactly two states")
        if min(rates) <= 0 or min(dwell_s) <= 0:
            raise ConfigurationError(
                f"MMPP rates/dwells must be > 0: {rates} / {dwell_s}")
        if requests is None and duration is None:
            raise ConfigurationError(
                "MMPP workload needs a request count or a duration")
        self.rates = tuple(rates)
        self.dwell_s = tuple(dwell_s)
        self.requests = requests
        self.duration = duration

    def arrivals(self, estimator: Estimator) -> List[Request]:
        rng = Lcg(self.seed)
        stream: List[Request] = []
        t = 0.0
        state = 0
        switch_at = rng.exponential(1.0 / self.dwell_s[state])
        while True:
            gap = rng.exponential(self.rates[state])
            if t + gap >= switch_at:
                # The state flips before the next arrival would land.
                t = switch_at
                state = 1 - state
                switch_at = t + rng.exponential(1.0 / self.dwell_s[state])
                continue
            t += gap
            if self.duration is not None and t > self.duration:
                break
            stream.append(self._request(rng, len(stream), t, estimator))
            if self.requests is not None and len(stream) >= self.requests:
                break
        return stream

    def describe(self) -> str:
        bound = (f"{self.requests} requests" if self.requests is not None
                 else f"{self.duration:g} s")
        return (f"mmpp({self.rates[0]:g}/{self.rates[1]:g} per s, "
                f"dwell {self.dwell_s[0]:g}/{self.dwell_s[1]:g} s, {bound})")


class ClosedLoopWorkload(_GeneratedWorkload):
    """N clients, each keeping one request in flight.

    Every client issues its first request after a think-time sample,
    then — driven by the engine — issues the next one a think time after
    each completion, until its per-client budget is spent.  Total stream
    size is ``clients * requests_per_client``.
    """

    closed_loop = True

    def __init__(self, clients: int = 8, think_s: float = 0.01,
                 requests_per_client: int = 64, **kwargs):
        super().__init__(**kwargs)
        if clients < 1 or requests_per_client < 1:
            raise ConfigurationError(
                f"need >= 1 clients and requests per client, got "
                f"{clients} / {requests_per_client}")
        if think_s < 0:
            raise ConfigurationError(f"negative think time: {think_s}")
        self.clients = clients
        self.think_s = think_s
        self.requests_per_client = requests_per_client
        self._rngs: List[Lcg] = []
        self._issued: List[int] = []
        self._next_id = 0

    @property
    def total_requests(self) -> int:
        """Requests the whole run will issue."""
        return self.clients * self.requests_per_client

    def arrivals(self, estimator: Estimator) -> List[Request]:
        """The initial wave: one first request per client."""
        self._rngs = [Lcg(self.seed + 0x10001 * client)
                      for client in range(self.clients)]
        self._issued = [0] * self.clients
        self._next_id = 0
        wave = []
        for client in range(self.clients):
            request = self.next_request(client, 0.0, estimator)
            assert request is not None
            wave.append(request)
        return wave

    def next_request(self, client: int, now: float,
                     estimator: Estimator) -> Optional[Request]:
        """The client's next request, or ``None`` when its budget is spent.

        The arrival lands one think-time sample after *now*.
        """
        if self._issued[client] >= self.requests_per_client:
            return None
        rng = self._rngs[client]
        think = rng.exponential(1.0 / self.think_s) if self.think_s > 0 \
            else 0.0
        request = self._request(rng, self._next_id, now + think, estimator)
        request.client = client
        self._issued[client] += 1
        self._next_id += 1
        return request

    def describe(self) -> str:
        return (f"closed({self.clients} clients, think {self.think_s:g} s, "
                f"{self.requests_per_client}/client)")


class SurgedWorkload(Workload):
    """A chaos wrapper compressing arrival gaps inside surge windows.

    Wraps an open-loop workload and time-warps its pregenerated stream:
    inside each ``(start_s, window_s, factor)`` window, inter-arrival
    gaps shrink by *factor*; arrivals after a window shift earlier by
    the time the compression saved (the warp is continuous and
    monotonic, so arrival order is preserved).  Absolute deadlines shift
    with their arrival, keeping relative slack intact.  Closed-loop
    workloads are interactive — the wrapper passes them through
    untouched (a surge cannot compress think time that has not happened
    yet).
    """

    def __init__(self, base: Workload,
                 windows: Sequence[Tuple[float, float, float]]):
        if not windows:
            raise ConfigurationError("surge wrapper needs >= 1 windows")
        for start, width, factor in windows:
            if start < 0 or width <= 0 or factor <= 1.0:
                raise ConfigurationError(
                    f"bad surge window ({start}, {width}, {factor})")
        self.base = base
        self.windows = sorted(windows)
        self.closed_loop = base.closed_loop

    def __getattr__(self, name: str):
        # Closed-loop plumbing (next_request, total_requests, ...) and
        # any generator knobs resolve on the wrapped workload.
        return getattr(self.base, name)

    def _warp(self, t: float) -> float:
        saved = 0.0
        for start, width, factor in self.windows:
            if t <= start:
                break
            if t <= start + width:
                return start - saved + (t - start) / factor
            saved += width * (1.0 - 1.0 / factor)
        return t - saved

    def arrivals(self, estimator: Estimator) -> List[Request]:
        stream = self.base.arrivals(estimator)
        if self.closed_loop:
            return stream
        for request in stream:
            warped = self._warp(request.arrival_s)
            if request.deadline_s is not None:
                request.deadline_s -= request.arrival_s - warped
            request.arrival_s = warped
        return stream

    def describe(self) -> str:
        spans = ", ".join(f"x{factor:g}@[{start:g},{start + width:g}]s"
                          for start, width, factor in self.windows)
        return f"{self.base.describe()} + surge({spans})"


class TraceWorkload(Workload):
    """Replay of a recorded request log.

    The log is a JSON array of rows in the :meth:`Request.to_dict`
    format: ``{"t": <arrival s>, "kernel": <name>, "iterations": <n>,
    "deadline_s": <absolute s, optional>}``.
    """

    def __init__(self, rows: Sequence[Dict[str, object]]):
        if not rows:
            raise ConfigurationError("trace workload is empty")
        self.rows = list(rows)

    @classmethod
    def from_json(cls, path: str) -> "TraceWorkload":
        """Load a trace log from a JSON file."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                rows = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot load trace {path}: {exc}")
        if not isinstance(rows, list):
            raise ConfigurationError(f"trace {path} is not a JSON array")
        return cls(rows)

    def arrivals(self, estimator: Estimator) -> List[Request]:
        stream: List[Request] = []
        for index, row in enumerate(self.rows):
            try:
                kernel = str(row["kernel"])
                t = float(row["t"])
            except (TypeError, KeyError, ValueError):
                raise ConfigurationError(f"bad trace row {index}: {row!r}")
            deadline = row.get("deadline_s")
            stream.append(Request(
                request_id=int(row.get("id", index)),
                kernel=kernel,
                arrival_s=t,
                deadline_s=None if deadline is None else float(deadline),
                iterations=int(row.get("iterations", 1))))
        stream.sort(key=lambda r: (r.arrival_s, r.request_id))
        return stream

    def describe(self) -> str:
        return f"trace({len(self.rows)} requests)"
