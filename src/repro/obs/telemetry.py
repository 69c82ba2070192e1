"""The unified telemetry hub: spans and counters for every layer.

One event model for every layer: the offload cost model, the SPI
link, the OpenMP runtime and the DES cluster emit into the active hub,
and the ASCII timeline of :mod:`repro.obs.render` and the per-PC
profiler of :mod:`repro.machine.profiler` render from or feed it.  A
:class:`Span` is a named, timed interval on an actor *lane* (``host``,
``spi``, ``cluster.core2``, ``tcdm.bank5`` ...), optionally
hierarchical through ``parent`` and carrying attributes plus
attributed energy in joules.  A :class:`Counter` is a monotonic count
or a gauge with an optional timestamped sample series.

Spans live in one of two time domains:

- ``wall`` — model seconds, used by the analytic offload/link layer;
- ``cycles`` — cluster clock cycles, used by the DES and OpenMP layers.

The :class:`Telemetry` hub is a no-op when disabled: every emission
method returns immediately after one attribute check — no span or
counter objects are allocated, no dict lookups happen, and
:meth:`Telemetry.timed` hands back one shared do-nothing context
manager — so always-on instrumentation costs ~nothing and produces
bit-identical results with telemetry off.  A module-level hub
(:func:`get_telemetry`) lets deep call paths emit without parameter
threading; :func:`use_telemetry` installs a hub for a scope.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs import clock as _clock

#: Time domain of the analytic (seconds-based) layers.
WALL = "wall"
#: Time domain of the cycle-based layers (DES cluster, OpenMP model).
CYCLES = "cycles"

_DOMAINS = (WALL, CYCLES)


@dataclass
class Span:
    """One named interval on an actor lane."""

    span_id: int
    name: str
    lane: str
    start: float
    duration: float
    domain: str = WALL
    parent: Optional[int] = None
    energy: float = 0.0            #: attributed energy, joules
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """End time of the span."""
        return self.start + self.duration

    @property
    def is_idle(self) -> bool:
        """Whether the span marks idle filler time rather than work."""
        return bool(self.attrs.get("idle", False))

    def base_name(self) -> str:
        """Span name with a trailing ``[index]`` stripped (phase key)."""
        if self.name.endswith("]") and "[" in self.name:
            return self.name[:self.name.rindex("[")]
        return self.name


@dataclass
class Counter:
    """A monotonic counter or gauge with an optional sample series."""

    name: str
    kind: str = "monotonic"        #: "monotonic" or "gauge"
    unit: str = ""
    domain: str = WALL
    value: float = 0.0
    samples: List[Tuple[float, float]] = field(default_factory=list)


class _NoopContext:
    """The shared do-nothing context manager of every disabled hub."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


#: One module-wide instance: a disabled hub's ``timed`` returns this
#: very object, so the fast path allocates nothing per call.
NOOP_CONTEXT = _NoopContext()


class _TimedSpan:
    """Context manager recording a real-elapsed-time span on exit."""

    __slots__ = ("_hub", "_name", "_lane", "_domain", "_clock", "_attrs",
                 "_start")

    def __init__(self, hub: "Telemetry", name: str, lane: str, domain: str,
                 clock, attrs: dict):
        self._hub = hub
        self._name = name
        self._lane = lane
        self._domain = domain
        self._clock = clock
        self._attrs = attrs
        self._start = 0.0

    def __enter__(self) -> "_TimedSpan":
        self._start = self._clock()
        return self

    def __exit__(self, *exc) -> bool:
        self._hub.span(self._name, self._lane, self._start,
                       self._clock() - self._start, domain=self._domain,
                       **self._attrs)
        return False


class Telemetry:
    """Collects spans and counters; a no-op while ``enabled`` is False."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self.counters: Dict[str, Counter] = {}
        self._ids = itertools.count(1)

    # -- emission ---------------------------------------------------------------

    def span(self, name: str, lane: str, start: float, duration: float, *,
             domain: str = WALL, parent: Optional[int] = None,
             energy: float = 0.0, **attrs) -> int:
        """Record one complete span; returns its id (0 when disabled)."""
        if not self.enabled:
            return 0
        if domain not in _DOMAINS:
            raise ObservabilityError(f"unknown time domain {domain!r}")
        if duration < 0:
            raise ObservabilityError(
                f"negative span duration {duration} for {name!r}")
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, lane, float(start),
                               float(duration), domain, parent,
                               float(energy), dict(attrs)))
        return span_id

    def instant(self, name: str, lane: str, ts: float, *,
                domain: str = WALL, parent: Optional[int] = None,
                **attrs) -> int:
        """Record a zero-duration marker event."""
        return self.span(name, lane, ts, 0.0, domain=domain, parent=parent,
                         **attrs)

    def count(self, name: str, delta: float = 1.0, *,
              ts: Optional[float] = None, unit: str = "",
              domain: str = WALL) -> None:
        """Increment a monotonic counter (negative deltas are rejected)."""
        if not self.enabled:
            return
        if delta < 0:
            raise ObservabilityError(
                f"monotonic counter {name!r} cannot decrease (delta {delta})")
        counter = self._counter(name, "monotonic", unit, domain)
        counter.value += delta
        counter.samples.append((0.0 if ts is None else float(ts),
                                counter.value))

    def gauge(self, name: str, value: float, *, ts: Optional[float] = None,
              unit: str = "", domain: str = WALL) -> None:
        """Set a gauge to an absolute value."""
        if not self.enabled:
            return
        counter = self._counter(name, "gauge", unit, domain)
        counter.value = float(value)
        counter.samples.append((0.0 if ts is None else float(ts),
                                counter.value))

    def _counter(self, name: str, kind: str, unit: str,
                 domain: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = Counter(name, kind, unit, domain)
            self.counters[name] = counter
        elif counter.kind != kind:
            raise ObservabilityError(
                f"counter {name!r} is {counter.kind}, not {kind}")
        return counter

    def timed(self, name: str, lane: str, *, domain: str = WALL,
              clock=None, **attrs):
        """Record a span around a ``with`` block, measured with *clock*
        (default: the shared :func:`repro.obs.clock.monotonic`).

        Unlike :meth:`span`, which records model time computed by the
        caller, this measures real elapsed time — the tool for pricing
        the framework itself (e.g. the DSE engine's evaluation batches).
        On a disabled hub this returns the shared :data:`NOOP_CONTEXT`
        without reading the clock or allocating anything.
        """
        if not self.enabled:
            return NOOP_CONTEXT
        return _TimedSpan(self, name, lane, domain,
                          _clock.monotonic if clock is None else clock,
                          attrs)

    # -- queries ----------------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded spans and counters."""
        self.spans.clear()
        self.counters.clear()
        self._ids = itertools.count(1)

    def lanes(self, domain: Optional[str] = None) -> List[str]:
        """Lane names in first-emission order, optionally per domain."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            if domain is None or span.domain == domain:
                seen.setdefault(span.lane, None)
        return list(seen)

    def spans_in(self, lane: str) -> List[Span]:
        """Spans of one lane, time-ordered."""
        return sorted((s for s in self.spans if s.lane == lane),
                      key=lambda s: (s.start, s.span_id))

    def leaf_spans(self, domain: Optional[str] = None) -> List[Span]:
        """Spans that are not parents of any other span."""
        parents = {s.parent for s in self.spans if s.parent is not None}
        return [s for s in self.spans if s.span_id not in parents
                and (domain is None or s.domain == domain)]

    def total_energy(self) -> float:
        """Sum of all span-attributed energy, joules."""
        return sum(s.energy for s in self.spans)


# -- the active hub -------------------------------------------------------------

_ACTIVE = Telemetry(enabled=False)


def get_telemetry() -> Telemetry:
    """The currently installed hub (disabled by default)."""
    return _ACTIVE


def set_telemetry(hub: Telemetry) -> Telemetry:
    """Install *hub* as the active hub; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = hub
    return previous


@contextlib.contextmanager
def use_telemetry(hub: Telemetry) -> Iterator[Telemetry]:
    """Install *hub* for the duration of a ``with`` block."""
    previous = set_telemetry(hub)
    try:
        yield hub
    finally:
        set_telemetry(previous)
