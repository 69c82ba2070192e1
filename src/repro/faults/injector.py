"""Seeded fault injection: one plan, deterministic fault events.

A :class:`FaultInjector` owns all randomness of a scenario (one
:class:`repro.units.Lcg`), so a given (plan, seed) pair always produces
the identical fault sequence — the bedrock of reproducible campaigns.
The injector exposes one hook per point in the offload stack where a
real system would fail:

- :meth:`mangle_transmission` — frame-level wire faults (drop,
  truncate, duplicate), applied by :class:`FaultyChannel` on top of the
  bit-error :class:`~repro.link.noise.NoisyChannel`;
- :meth:`corrupt_status` — garbage in STATUS replies;
- :meth:`boot_fails` / :meth:`kernel_hangs` — per-attempt control-plane
  faults;
- :meth:`brownout_droop` — operating-point droop.

Every injected event is recorded in :attr:`events` and counted on the
active telemetry hub (``faults.injected`` plus one counter per kind), so
fault campaigns show up in Perfetto traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.faults.plan import (
    ATTEMPT_FAULTS,
    FRAME_FAULTS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FleetEventKind,
    FleetPlan,
)
from repro.link.noise import NoisyChannel
from repro.obs.telemetry import get_telemetry
from repro.units import Lcg


class FaultInjector:
    """Turns a :class:`~repro.faults.plan.FaultPlan` into seeded events."""

    def __init__(self, plan: FaultPlan, seed: int = 1):
        self.plan = plan
        self.seed = seed
        self._rng = Lcg(seed)
        self.events: List[str] = []
        self._budgets = {spec.kind: spec.count for spec in plan.specs}
        #: Whether :meth:`boot_fails` / :meth:`kernel_hangs` can fire at
        #: all: a plan without the kind never fires it nor draws for it,
        #: so a caller may skip the hook.
        self.boots_can_fail = plan.has(FaultKind.BOOT_FAILURE)
        self.kernels_can_hang = plan.has(FaultKind.KERNEL_HANG)

    # -- randomness --------------------------------------------------------------

    def _fires(self, spec: FaultSpec) -> bool:
        """Consume the spec's budget first, then its probability."""
        if self._budgets.get(spec.kind, 0) > 0:
            self._budgets[spec.kind] -= 1
            return True
        return spec.rate > 0.0 and self._rng.uniform() < spec.rate

    def _record(self, kind: FaultKind) -> None:
        self.events.append(kind.value)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.count("faults.injected")
            telemetry.count(f"faults.injected.{kind.value}")

    # -- plan queries ------------------------------------------------------------

    @property
    def bit_error_rate(self) -> float:
        """The plan's SPI bit-error rate (0 when absent)."""
        if self.plan.has(FaultKind.BIT_ERRORS):
            return self.plan.spec_for(FaultKind.BIT_ERRORS).rate
        return 0.0

    def channel(self) -> "FaultyChannel":
        """The wire channel of this scenario: bit errors + frame faults."""
        return FaultyChannel(
            NoisyChannel(self.bit_error_rate, seed=self.seed), self)

    # -- hook points -------------------------------------------------------------

    def mangle_transmission(self, data: bytes) -> Optional[bytes]:
        """Apply frame-level wire faults to one transmission.

        Returns the (possibly mangled) bytes, or ``None`` for a dropped
        transmission that never reaches the receiver.
        """
        for kind in FRAME_FAULTS:
            if not self.plan.has(kind):
                continue
            if not self._fires(self.plan.spec_for(kind)):
                continue
            self._record(kind)
            if kind is FaultKind.DROP_FRAME:
                return None
            if kind is FaultKind.TRUNCATE_FRAME:
                # Cut the transfer short mid-payload; keep at least one
                # byte so "truncated" stays distinct from "dropped".
                keep = max(1, len(data) // 2)
                return data[:keep]
            return data + data  # DUPLICATE_FRAME
        return data

    def corrupt_status(self, payload: bytes) -> bytes:
        """Possibly corrupt a STATUS reply payload."""
        kind = FaultKind.CORRUPT_STATUS
        if self.plan.has(kind) and self._fires(self.plan.spec_for(kind)):
            self._record(kind)
            return bytes(((byte ^ 0xA5) | 0x80) & 0xFF for byte in payload) \
                or b"\xff"
        return payload

    def boot_fails(self) -> bool:
        """Whether this attempt's boot never comes up (one budget unit)."""
        return self.boots_can_fail \
            and self._attempt_fault(FaultKind.BOOT_FAILURE)

    def kernel_hangs(self) -> bool:
        """Whether this attempt's kernel never raises EOC."""
        return self.kernels_can_hang \
            and self._attempt_fault(FaultKind.KERNEL_HANG)

    def _attempt_fault(self, kind: FaultKind) -> bool:
        """Draw one attempt fault of a kind the plan holds."""
        assert kind in ATTEMPT_FAULTS
        if self._fires(self.plan.spec_for(kind)):
            self._record(kind)
            return True
        return False

    def brownout_droop(self) -> float:
        """Clock multiplier for this attempt (1.0 = nominal supply)."""
        kind = FaultKind.BROWNOUT
        if self.plan.has(kind):
            self._record(kind)
            return self.plan.spec_for(kind).droop
        return 1.0

    @property
    def injected(self) -> int:
        """Total fault events injected so far."""
        return len(self.events)


class FaultyChannel:
    """A wire channel layering frame-level faults over bit errors.

    Duck-type compatible with :class:`~repro.link.noise.NoisyChannel`
    (``transmit`` + ``bit_error_rate``), so it drops straight into
    :class:`~repro.link.noise.RetransmittingSender` and the offload
    driver.  A dropped transmission returns ``b""`` — zero frames at the
    receiver, which the sender treats as a failed delivery.
    """

    def __init__(self, inner: NoisyChannel, injector: FaultInjector):
        self.inner = inner
        self.injector = injector

    @property
    def bit_error_rate(self) -> float:
        """The underlying bit-error rate (for diagnostics)."""
        return self.inner.bit_error_rate

    @property
    def bits_transferred(self) -> int:
        """Bits pushed through the underlying channel."""
        return self.inner.bits_transferred

    def transmit(self, data: bytes) -> bytes:
        """One wire transmission through both fault layers."""
        mangled = self.injector.mangle_transmission(data)
        if mangled is None:
            return b""
        return self.inner.transmit(mangled)


# ---------------------------------------------------------------------------
# Fleet-scope injection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetAction:
    """One timed fleet action expanded from a :class:`FleetPlan` event.

    ``node`` is a fleet index, or ``None`` for a fleet-wide action
    (brownout droop / restore).  ``droop`` only matters for the
    ``droop`` action.
    """

    at_s: float
    action: str  # "crash" | "recover" | "droop" | "restore"
    node: Optional[int] = None
    droop: float = 1.0


class FleetInjector:
    """Expands a :class:`FleetPlan` into a deterministic action schedule.

    One :class:`repro.units.Lcg` is seeded per event spec, so a given
    (plan, seed, fleet-size) triple always yields the identical schedule
    — scenarios stay independent of each other and of the serve
    engine's own randomness.
    """

    def __init__(self, plan: FleetPlan, seed: int = 1):
        self.plan = plan
        self.seed = seed

    def _lcg(self, index: int) -> Lcg:
        return Lcg((self.seed + index * 7919) & 0xFFFFFFFF)

    def actions(self, fleet_size: int) -> List[FleetAction]:
        """The timed action schedule for a fleet of *fleet_size* nodes.

        Arrival-surge events produce no timed actions — they reshape the
        arrival process itself (see :meth:`surge_windows`).
        """
        actions: List[FleetAction] = []
        for index, event in enumerate(self.plan.events):
            rng = self._lcg(index)
            if event.kind is FleetEventKind.CRASH_STORM:
                actions.extend(self._crash_storm(event, rng, fleet_size))
            elif event.kind is FleetEventKind.FLEET_BROWNOUT:
                actions.append(FleetAction(event.start_s, "droop",
                                           droop=event.droop))
                actions.append(FleetAction(event.start_s + event.window_s,
                                           "restore"))
            elif event.kind is FleetEventKind.FLAPPING:
                actions.extend(self._flapping(event, rng, fleet_size))
        actions.sort(key=lambda a: (a.at_s, a.action, -1 if a.node is None
                                    else a.node))
        return actions

    def surge_windows(self) -> List[Tuple[float, float, float]]:
        """``(start_s, window_s, factor)`` for every arrival-surge event,
        sorted by start time."""
        windows = [(e.start_s, e.window_s, e.factor)
                   for e in self.plan.events
                   if e.kind is FleetEventKind.ARRIVAL_SURGE]
        windows.sort()
        return windows

    def _pick_nodes(self, count: int, rng: Lcg,
                    fleet_size: int) -> List[int]:
        """*count* distinct node indices via a partial Fisher–Yates."""
        pool = list(range(fleet_size))
        picked = []
        for _ in range(min(count, fleet_size)):
            slot = int(rng.uniform() * len(pool)) % len(pool)
            picked.append(pool.pop(slot))
        return picked

    def _crash_storm(self, event, rng: Lcg,
                     fleet_size: int) -> List[FleetAction]:
        actions = []
        for node in self._pick_nodes(event.nodes, rng, fleet_size):
            crash_at = event.start_s + rng.uniform() * event.window_s
            actions.append(FleetAction(crash_at, "crash", node))
            if event.recover_s > 0:
                actions.append(FleetAction(crash_at + event.recover_s,
                                           "recover", node))
        return actions

    def _flapping(self, event, rng: Lcg,
                  fleet_size: int) -> List[FleetAction]:
        actions = []
        for node in self._pick_nodes(event.nodes, rng, fleet_size):
            t = event.start_s
            end = event.start_s + event.window_s
            while t < end:
                # Down for a jittered half-period, then back up; the
                # final recovery always lands so flapping nodes end the
                # scenario alive.
                down = event.period_s * 0.5 * (0.6 + 0.8 * rng.uniform())
                actions.append(FleetAction(t, "crash", node))
                actions.append(FleetAction(t + down, "recover", node))
                t += event.period_s
        return actions
