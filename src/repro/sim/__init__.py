"""A small generator-based discrete-event simulation engine.

Used by the cycle-level PULP cluster model (:mod:`repro.pulp`): cores,
DMA channels and the hardware synchronizer are processes; TCDM banks are
single-server resources; time is measured in clock cycles (floats).

The engine is deliberately minimal — processes are Python generators
that ``yield`` commands:

* ``Timeout(delay)`` — resume after *delay* time units;
* an :class:`Event` — resume when it is triggered;
* a :class:`Process` — resume when it finishes;
* ``Resource.request()`` — resume when granted (release explicitly).

Processes can also be interrupted (:meth:`Process.interrupt`), which
throws :class:`~repro.errors.Interrupt` into the generator and
invalidates the wait it was blocked on.
"""

from repro.sim.engine import Event, Process, Simulator, Timeout
from repro.sim.resources import Resource

__all__ = ["Simulator", "Process", "Event", "Timeout", "Resource"]
