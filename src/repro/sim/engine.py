"""Core of the discrete-event engine: simulator, processes, events.

A process waits on a :class:`Timeout`, a one-shot :class:`Event` or
another :class:`Process`; :meth:`Process.interrupt` throws
:class:`~repro.errors.Interrupt` into a waiting process, invalidating
whatever it was waiting on.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError
from heapq import heappop, heappush
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import DeadlockError, Interrupt, SimulationError


class Timeout:
    """Yielded by a process to advance its local time.

    Immutable, compared and hashed by ``delay`` (a process yields one
    per step, so construction is kept to a slot store).
    """

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        object.__setattr__(self, "delay", delay)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.delay,) == (other.delay,)

    def __hash__(self) -> int:
        return hash((self.delay,))

    def __repr__(self) -> str:
        return f"Timeout(delay={self.delay!r})"


class Event:
    """A one-shot event processes can wait on.

    Triggering wakes every waiter at the current simulation time and
    delivers ``value`` as the result of their ``yield``.
    """

    def __init__(self, simulator: "Simulator", name: str = ""):
        self._simulator = simulator
        self.name = name
        self.triggered = False
        self.value: Any = None
        self._waiters: List[Tuple["Process", int]] = []

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all waiters."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            for process, epoch in waiters:
                self._simulator.schedule(0.0, process._resume_if, epoch,
                                         value)

    def add_waiter(self, process: "Process") -> None:
        """Register a process; wakes immediately if already triggered."""
        if self.triggered:
            self._simulator.schedule(0.0, process._resume_if,
                                     process._epoch, self.value)
        else:
            self._waiters.append((process, process._epoch))


class Process:
    """A running generator inside the simulator.

    Every suspension (a ``yield``) opens a *wait epoch*; resuming or
    interrupting closes it.  Stale wakeups from an earlier epoch — e.g.
    the timeout a process was interrupted out of — are silently dropped,
    so interruption never double-resumes a process.
    """

    def __init__(self, simulator: "Simulator",
                 generator: Generator, name: str = ""):
        self._simulator = simulator
        self._generator = generator
        self.name = name
        self.finished = False
        self.interrupted = False
        self.result: Any = None
        self.completion = Event(simulator, name=f"{name}.done")
        self._epoch = 0

    def resume(self, value: Any = None) -> None:
        """Advance the generator by one command (engine-internal)."""
        self._step(self._generator.send, value)

    def _resume_if(self, epoch: int, value: Any = None) -> None:
        """Resume only if the wait that scheduled this is still current."""
        if epoch == self._epoch:
            self._step(self._generator.send, value)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        Delivered at the current simulation time; whatever the process
        was waiting on (timeout, event, another process) is invalidated.
        A no-op on finished processes.  If the generator does not catch
        the interrupt, the process terminates with ``interrupted`` set
        and a ``None`` result.
        """
        if self.finished:
            return
        self._simulator.schedule(0.0, self._deliver_interrupt, self._epoch,
                                 cause)

    def _deliver_interrupt(self, epoch: int, cause: Any) -> None:
        if self.finished or epoch != self._epoch:
            return  # resumed (or finished) before delivery: stale
        self._step(self._generator.throw, Interrupt(cause))

    def _step(self, advance: Callable, argument: Any) -> None:
        """Advance the generator by one command and act on the command.

        The only place a generator advances: resumes and interrupt
        deliveries both come through here.
        """
        if self.finished:
            return
        self._epoch += 1
        try:
            command = advance(argument)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.completion.trigger(stop.value)
            return
        except Interrupt:
            # The generator let the interrupt escape: the process dies.
            self.finished = True
            self.interrupted = True
            self.completion.trigger(None)
            return
        if isinstance(command, Timeout):
            self._simulator.schedule(command.delay, self._resume_if,
                                     self._epoch, None)
        elif isinstance(command, Event):
            command.add_waiter(self)
        elif isinstance(command, Process):
            command.completion.add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported command {command!r}")


class Simulator:
    """The event queue and clock."""

    def __init__(self):
        self._now = 0.0
        self._queue: List = []
        self._sequence = 0
        self._processes: List[Process] = []
        self._cancelled: set = set()

    # A C-level getter: every model component reads the clock per event.
    now = property(operator.attrgetter("_now"),
                   doc="Current simulation time (read-only).")

    def schedule(self, delay: float, callback: Callable, *args: Any) -> int:
        """Run ``callback(*args)`` after *delay* time units.

        Returns a handle accepted by :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        handle = self._sequence
        heappush(self._queue, (self._now + delay, handle, callback, args))
        self._sequence = handle + 1
        return handle

    def cancel(self, handle: int) -> None:
        """Cancel a scheduled callback before it fires.

        A cancelled entry is discarded without running and — critically —
        without advancing the clock, so speculative timers (health
        probes, chaos events past the drain) leave the final simulation
        time untouched.  Cancelling an already-fired or unknown handle
        is a no-op.
        """
        self._cancelled.add(handle)

    def event(self, name: str = "") -> Event:
        """Create a fresh event."""
        return Event(self, name)

    def add_process(self, generator: Generator, name: str = "") -> Process:
        """Register and start a process at the current time."""
        process = Process(self, generator, name or f"process-{len(self._processes)}")
        self._processes.append(process)
        self.schedule(0.0, process.resume, None)
        return process

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue (or stop at time *until*); returns the
        final simulation time."""
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return until
            time, sequence, callback, args = heappop(queue)
            if cancelled and sequence in cancelled:
                # Dropped without running and without touching the clock.
                cancelled.discard(sequence)
                continue
            self._now = time
            callback(*args)
        return self._now

    def blocked(self) -> List[str]:
        """Names of the processes that have not finished, in start order."""
        return [p.name for p in self._processes if not p.finished]

    def run_all(self) -> float:
        """Run to completion and verify every process finished.

        Raises :class:`~repro.errors.DeadlockError` when the queue drains
        while processes are still blocked (a lost wakeup in the model).
        """
        self.run()
        stuck = self.blocked()
        if stuck:
            raise DeadlockError(
                f"simulation drained with blocked processes: {stuck}")
        return self._now
