"""Shared resources with FIFO queuing (e.g. TCDM banks, DMA channels)."""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator


class Resource:
    """A capacity-limited resource with FIFO grant order.

    Usage inside a process::

        grant = resource.request()
        yield grant            # blocks until granted
        yield Timeout(1.0)     # hold the resource
        resource.release()

    Statistics (`grants`, `waits`, `wait_time`) feed the contention
    analysis of the cluster model.
    """

    def __init__(self, simulator: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self._simulator = simulator
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Event] = deque()
        self._pending_times: dict = {}
        self.grants = 0
        self.waits = 0
        self.wait_time = 0.0

    @property
    def queue_length(self) -> int:
        """Requests waiting for a grant."""
        return len(self._waiting)

    def request(self) -> Event:
        """An event that triggers when the resource is granted."""
        event = self._simulator.event(name=f"{self.name}.grant")
        if self._in_use < self.capacity and not self._waiting:
            self._in_use += 1
            self.grants += 1
            event.trigger(self)
        else:
            self.waits += 1
            self._pending_times[event] = self._simulator.now
            self._waiting.append(event)
        return event

    def release(self) -> None:
        """Return one unit, granting the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiting:
            event = self._waiting.popleft()
            self._in_use += 1
            self.grants += 1
            self.wait_time += self._simulator.now - self._pending_times.pop(event)
            event.trigger(self)

    @property
    def average_wait(self) -> float:
        """Mean queueing delay over all grants."""
        if self.grants == 0:
            return 0.0
        return self.wait_time / self.grants
