"""Declarative fault scenarios: what breaks, how often, and when.

The paper's prototype couples the STM32 host to PULP over bare board
wires and a lightweight SPI protocol — exactly the kind of link and
accelerator that fails in the field.  A :class:`FaultPlan` is the
declarative description of one such failure scenario: a list of
:class:`FaultSpec` entries, each naming a :class:`FaultKind` plus its
parameters.  Plans are pure data (JSON round-trippable); the seeded
:class:`~repro.faults.injector.FaultInjector` turns a plan into
deterministic fault events.

Fault taxonomy (see ``docs/RELIABILITY.md``):

========================  =====================================================
kind                      models
========================  =====================================================
``bit-errors``            SPI bit flips at a configured BER (noisy wires)
``drop-frame``            a transmission that never arrives (EMI burst, CS
                          glitch)
``truncate-frame``        a transfer cut short (DMA abort, watchdog on CS)
``duplicate-frame``       a replayed transaction (stuck DMA request line)
``corrupt-status``        garbage in the accelerator's STATUS reply
``boot-failure``          the accelerator never comes out of reset after START
``kernel-hang``           the kernel never raises EOC (deadlocked barrier)
``brownout``              supply droop forcing the FLL to a lower clock
========================  =====================================================
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError


class FaultKind(enum.Enum):
    """The modeled fault classes, spanning link, control plane and power."""

    BIT_ERRORS = "bit-errors"
    DROP_FRAME = "drop-frame"
    TRUNCATE_FRAME = "truncate-frame"
    DUPLICATE_FRAME = "duplicate-frame"
    CORRUPT_STATUS = "corrupt-status"
    BOOT_FAILURE = "boot-failure"
    KERNEL_HANG = "kernel-hang"
    BROWNOUT = "brownout"


#: Fault kinds applied per wire transmission (probabilistic via ``rate``
#: or deterministic via ``count``).
FRAME_FAULTS = (FaultKind.DROP_FRAME, FaultKind.TRUNCATE_FRAME,
                FaultKind.DUPLICATE_FRAME)

#: Fault kinds consumed once per offload attempt (``count`` attempts hit).
ATTEMPT_FAULTS = (FaultKind.BOOT_FAILURE, FaultKind.KERNEL_HANG)


@dataclass(frozen=True)
class FaultSpec:
    """One fault source inside a plan.

    Parameters (kind-dependent):

    - ``rate``: per-event probability (bit for ``bit-errors``, wire
      transmission for frame faults, STATUS reply for ``corrupt-status``);
    - ``count``: deterministic budget — the first ``count`` matching
      events are hit (frame faults, ``boot-failure``, ``kernel-hang``);
    - ``droop``: clock multiplier in (0, 1] for ``brownout``.
    """

    kind: FaultKind
    rate: float = 0.0
    count: int = 0
    droop: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ConfigurationError(
                f"{self.kind.value}: rate {self.rate} outside [0, 1)")
        if self.count < 0:
            raise ConfigurationError(
                f"{self.kind.value}: negative count {self.count}")
        if not 0.0 < self.droop <= 1.0:
            raise ConfigurationError(
                f"{self.kind.value}: droop {self.droop} outside (0, 1]")
        if self.kind is FaultKind.BIT_ERRORS and self.rate == 0.0:
            raise ConfigurationError("bit-errors spec needs a rate > 0")
        if self.kind in FRAME_FAULTS and self.rate == 0.0 and self.count == 0:
            raise ConfigurationError(
                f"{self.kind.value} spec needs a rate or a count")
        if self.kind in ATTEMPT_FAULTS and self.count == 0:
            raise ConfigurationError(
                f"{self.kind.value} spec needs a count >= 1")
        if self.kind is FaultKind.BROWNOUT and self.droop == 1.0:
            raise ConfigurationError("brownout spec needs a droop < 1")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        payload: Dict[str, object] = {"kind": self.kind.value}
        if self.rate:
            payload["rate"] = self.rate
        if self.count:
            payload["count"] = self.count
        if self.droop != 1.0:
            payload["droop"] = self.droop
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        """Inverse of :meth:`to_dict`."""
        try:
            kind = FaultKind(payload["kind"])
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"bad fault spec {payload!r}: unknown kind") from None
        return cls(kind=kind,
                   rate=float(payload.get("rate", 0.0)),
                   count=int(payload.get("count", 0)),
                   droop=float(payload.get("droop", 1.0)))


@dataclass(frozen=True)
class FaultPlan:
    """A named, declarative fault scenario: zero or more fault sources."""

    name: str
    specs: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        kinds = [spec.kind for spec in self.specs]
        if len(set(kinds)) != len(kinds):
            raise ConfigurationError(
                f"plan {self.name!r} repeats a fault kind")

    @property
    def kinds(self) -> Tuple[FaultKind, ...]:
        """The fault kinds this plan injects."""
        return tuple(spec.kind for spec in self.specs)

    def spec_for(self, kind: FaultKind) -> FaultSpec:
        """The spec of *kind*; raises ``KeyError`` when absent."""
        for spec in self.specs:
            if spec.kind is kind:
                return spec
        raise KeyError(kind)

    def has(self, kind: FaultKind) -> bool:
        """Whether the plan injects *kind*."""
        for spec in self.specs:
            if spec.kind is kind:
                return True
        return False

    def describe(self) -> str:
        """Short human-readable summary (``clean`` for the empty plan)."""
        if not self.specs:
            return "clean"
        parts = []
        for spec in self.specs:
            detail = []
            if spec.rate:
                detail.append(f"rate={spec.rate:g}")
            if spec.count:
                detail.append(f"count={spec.count}")
            if spec.droop != 1.0:
                detail.append(f"droop={spec.droop:g}")
            parts.append(f"{spec.kind.value}({', '.join(detail)})")
        return " + ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        return {"name": self.name,
                "specs": [spec.to_dict() for spec in self.specs]}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        specs = payload.get("specs", [])
        if not isinstance(specs, list):
            raise ConfigurationError(f"bad fault plan {payload!r}")
        return cls(name=str(payload.get("name", "unnamed")),
                   specs=tuple(FaultSpec.from_dict(s) for s in specs))

    # -- canned plans -----------------------------------------------------------

    @classmethod
    def clean(cls) -> "FaultPlan":
        """No faults at all (the control scenario)."""
        return cls("clean")

    @classmethod
    def bit_errors(cls, rate: float) -> "FaultPlan":
        """SPI bit flips at *rate*."""
        return cls(f"bit-errors@{rate:g}",
                   (FaultSpec(FaultKind.BIT_ERRORS, rate=rate),))

    @classmethod
    def drop_frames(cls, count: int = 1, rate: float = 0.0) -> "FaultPlan":
        """Dropped wire transmissions."""
        return cls("drop-frame",
                   (FaultSpec(FaultKind.DROP_FRAME, rate=rate, count=count),))

    @classmethod
    def truncate_frames(cls, count: int = 1, rate: float = 0.0) -> "FaultPlan":
        """Truncated wire transmissions."""
        return cls("truncate-frame",
                   (FaultSpec(FaultKind.TRUNCATE_FRAME, rate=rate,
                              count=count),))

    @classmethod
    def duplicate_frames(cls, count: int = 1,
                         rate: float = 0.0) -> "FaultPlan":
        """Duplicated wire transmissions."""
        return cls("duplicate-frame",
                   (FaultSpec(FaultKind.DUPLICATE_FRAME, rate=rate,
                              count=count),))

    @classmethod
    def corrupt_status(cls, rate: float = 0.0,
                       count: int = 1) -> "FaultPlan":
        """Corrupted STATUS replies."""
        return cls("corrupt-status",
                   (FaultSpec(FaultKind.CORRUPT_STATUS, rate=rate,
                              count=count),))

    @classmethod
    def boot_failure(cls, count: int = 1) -> "FaultPlan":
        """The first *count* boots never come up."""
        return cls("boot-failure",
                   (FaultSpec(FaultKind.BOOT_FAILURE, count=count),))

    @classmethod
    def kernel_hang(cls, count: int = 1) -> "FaultPlan":
        """The first *count* kernel runs never raise EOC."""
        return cls("kernel-hang",
                   (FaultSpec(FaultKind.KERNEL_HANG, count=count),))

    @classmethod
    def brownout(cls, droop: float = 0.8) -> "FaultPlan":
        """Supply droop scaling the accelerator clock by *droop*."""
        return cls(f"brownout@{droop:g}",
                   (FaultSpec(FaultKind.BROWNOUT, droop=droop),))

    @classmethod
    def combined(cls, name: str, *plans: "FaultPlan") -> "FaultPlan":
        """Merge several single-kind plans into one scenario."""
        specs: List[FaultSpec] = []
        for plan in plans:
            specs.extend(plan.specs)
        return cls(name, tuple(specs))


# ---------------------------------------------------------------------------
# Fleet-scope fault plans
# ---------------------------------------------------------------------------
#
# A :class:`FaultPlan` describes what goes wrong inside ONE offload
# stack.  A :class:`FleetPlan` describes *correlated* failures across a
# whole serving fleet — the scenarios a single-node plan cannot express:
#
# ========================  ===================================================
# kind                      models
# ========================  ===================================================
# ``crash-storm``           K nodes crash within a time window (shared PSU
#                           rail, cascading watchdogs); optional recovery
# ``fleet-brownout``        supply droop hitting every node at once for a
#                           window (the battery sagging under load)
# ``flapping``              a node cycling down/up with a period (marginal
#                           solder joint, thermal cutout)
# ``arrival-surge``         the open-loop arrival process compressed by a
#                           factor inside a window (a traffic spike)
# ========================  ===================================================
#
# Plans stay pure data; :class:`~repro.faults.injector.FleetInjector`
# expands a (plan, seed, fleet-size) triple into a deterministic action
# schedule.


class FleetEventKind(enum.Enum):
    """Correlated, fleet-scope failure classes."""

    CRASH_STORM = "crash-storm"
    FLEET_BROWNOUT = "fleet-brownout"
    FLAPPING = "flapping"
    ARRIVAL_SURGE = "arrival-surge"


@dataclass(frozen=True)
class FleetEventSpec:
    """One fleet-scope event inside a :class:`FleetPlan`.

    Parameters (kind-dependent):

    - ``start_s`` / ``window_s``: when the event begins and how long the
      affected window lasts;
    - ``nodes``: how many nodes are hit (``crash-storm``, ``flapping``);
    - ``recover_s``: per-node downtime before recovery for
      ``crash-storm`` (0 = the crashed nodes stay down);
    - ``droop``: clock multiplier in (0, 1) for ``fleet-brownout``;
    - ``period_s``: full down+up cycle length for ``flapping``;
    - ``factor``: arrival-gap compression (> 1) for ``arrival-surge``.
    """

    kind: FleetEventKind
    start_s: float = 0.0
    window_s: float = 0.0
    nodes: int = 1
    recover_s: float = 0.0
    droop: float = 1.0
    period_s: float = 0.0
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ConfigurationError(
                f"{self.kind.value}: negative start {self.start_s}")
        if self.window_s < 0:
            raise ConfigurationError(
                f"{self.kind.value}: negative window {self.window_s}")
        if self.nodes < 1:
            raise ConfigurationError(
                f"{self.kind.value}: needs at least one node")
        if self.recover_s < 0:
            raise ConfigurationError(
                f"{self.kind.value}: negative recovery {self.recover_s}")
        if self.kind is FleetEventKind.FLEET_BROWNOUT:
            if not 0.0 < self.droop < 1.0:
                raise ConfigurationError(
                    f"fleet-brownout droop {self.droop} outside (0, 1)")
            if self.window_s <= 0:
                raise ConfigurationError("fleet-brownout needs a window > 0")
        if self.kind is FleetEventKind.FLAPPING:
            if self.period_s <= 0:
                raise ConfigurationError("flapping needs a period > 0")
            if self.window_s <= 0:
                raise ConfigurationError("flapping needs a window > 0")
        if self.kind is FleetEventKind.ARRIVAL_SURGE:
            if self.factor <= 1.0:
                raise ConfigurationError(
                    f"arrival-surge factor {self.factor} must be > 1")
            if self.window_s <= 0:
                raise ConfigurationError("arrival-surge needs a window > 0")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation (defaults omitted)."""
        payload: Dict[str, object] = {"kind": self.kind.value}
        if self.start_s:
            payload["start_s"] = self.start_s
        if self.window_s:
            payload["window_s"] = self.window_s
        if self.nodes != 1:
            payload["nodes"] = self.nodes
        if self.recover_s:
            payload["recover_s"] = self.recover_s
        if self.droop != 1.0:
            payload["droop"] = self.droop
        if self.period_s:
            payload["period_s"] = self.period_s
        if self.factor != 1.0:
            payload["factor"] = self.factor
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FleetEventSpec":
        """Inverse of :meth:`to_dict`."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"bad fleet event {payload!r}: not an object")
        try:
            kind = FleetEventKind(payload["kind"])
        except (KeyError, ValueError):
            raise ConfigurationError(
                f"bad fleet event {payload!r}: unknown kind") from None

        def numeric(key, default, convert=float):
            value = payload.get(key, default)
            try:
                result = convert(value)
            except (TypeError, ValueError, OverflowError):
                result = math.nan
            if not math.isfinite(result):
                raise ConfigurationError(
                    f"{kind.value}: {key} must be a finite number, "
                    f"got {value!r}")
            return result

        return cls(kind=kind,
                   start_s=numeric("start_s", 0.0),
                   window_s=numeric("window_s", 0.0),
                   nodes=numeric("nodes", 1, int),
                   recover_s=numeric("recover_s", 0.0),
                   droop=numeric("droop", 1.0),
                   period_s=numeric("period_s", 0.0),
                   factor=numeric("factor", 1.0))


@dataclass(frozen=True)
class FleetPlan:
    """A named fleet-scope chaos scenario: zero or more correlated events."""

    name: str
    events: Tuple[FleetEventSpec, ...] = ()

    def has(self, kind: FleetEventKind) -> bool:
        """Whether the plan contains an event of *kind*."""
        return any(event.kind is kind for event in self.events)

    def describe(self) -> str:
        """Short human-readable summary (``clean`` for the empty plan)."""
        if not self.events:
            return "clean"
        parts = []
        for event in self.events:
            detail = [f"@{event.start_s:g}+{event.window_s:g}s"]
            if event.kind in (FleetEventKind.CRASH_STORM,
                              FleetEventKind.FLAPPING):
                detail.append(f"nodes={event.nodes}")
            if event.recover_s:
                detail.append(f"recover={event.recover_s:g}s")
            if event.droop != 1.0:
                detail.append(f"droop={event.droop:g}")
            if event.period_s:
                detail.append(f"period={event.period_s:g}s")
            if event.factor != 1.0:
                detail.append(f"x{event.factor:g}")
            parts.append(f"{event.kind.value}({', '.join(detail)})")
        return " + ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        return {"name": self.name,
                "events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FleetPlan":
        """Inverse of :meth:`to_dict`."""
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"bad fleet plan {payload!r}: not an object")
        events = payload.get("events", [])
        if not isinstance(events, list):
            raise ConfigurationError(f"bad fleet plan {payload!r}")
        return cls(name=str(payload.get("name", "unnamed")),
                   events=tuple(FleetEventSpec.from_dict(e) for e in events))

    # -- canned plans -----------------------------------------------------------

    @classmethod
    def empty(cls) -> "FleetPlan":
        """No fleet events at all (the control scenario)."""
        return cls("clean")

    @classmethod
    def crash_storm(cls, nodes: int = 3, start_s: float = 0.1,
                    window_s: float = 0.3,
                    recover_s: float = 0.5) -> "FleetPlan":
        """*nodes* crash inside the window; each recovers after
        *recover_s* (0 = permanent)."""
        return cls(f"crash-storm-{nodes}",
                   (FleetEventSpec(FleetEventKind.CRASH_STORM,
                                   start_s=start_s, window_s=window_s,
                                   nodes=nodes, recover_s=recover_s),))

    @classmethod
    def fleet_brownout(cls, droop: float = 0.6, start_s: float = 0.2,
                       window_s: float = 0.8) -> "FleetPlan":
        """Every node's clock scaled by *droop* for the window."""
        return cls(f"fleet-brownout@{droop:g}",
                   (FleetEventSpec(FleetEventKind.FLEET_BROWNOUT,
                                   start_s=start_s, window_s=window_s,
                                   droop=droop),))

    @classmethod
    def flapping(cls, nodes: int = 1, period_s: float = 0.15,
                 start_s: float = 0.1, window_s: float = 1.0) -> "FleetPlan":
        """*nodes* cycle down/up with *period_s* inside the window."""
        return cls("flapping",
                   (FleetEventSpec(FleetEventKind.FLAPPING, start_s=start_s,
                                   window_s=window_s, nodes=nodes,
                                   period_s=period_s),))

    @classmethod
    def arrival_surge(cls, factor: float = 4.0, start_s: float = 0.2,
                      window_s: float = 0.3) -> "FleetPlan":
        """Open-loop arrival gaps inside the window compressed by
        *factor*."""
        return cls(f"surge-x{factor:g}",
                   (FleetEventSpec(FleetEventKind.ARRIVAL_SURGE,
                                   start_s=start_s, window_s=window_s,
                                   factor=factor),))

    @classmethod
    def fleet_combined(cls, name: str, *plans: "FleetPlan") -> "FleetPlan":
        """Merge several fleet plans into one scenario."""
        events: List[FleetEventSpec] = []
        for plan in plans:
            events.extend(plan.events)
        return cls(name, tuple(events))
