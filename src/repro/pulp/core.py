"""Cycle-level OR10N core execution engine (discrete-event).

A core executes an :data:`OpStream` — compute bursts interleaved with
TCDM accesses.  Compute bursts advance local time; memory ops arbitrate
for their TCDM bank through the logarithmic interconnect (one cycle when
granted, queuing when another initiator holds the bank).  The stream is
produced from a kernel program by :func:`repro.pulp.timing.op_stream_of`
or hand-built in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Union

from repro.errors import SimulationError
from repro.obs.telemetry import CYCLES, Telemetry
from repro.pulp.tcdm import Tcdm
from repro.sim.engine import Simulator, Timeout


@dataclass(frozen=True)
class ComputeOp:
    """A burst of *cycles* of pure computation."""

    cycles: float

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise SimulationError(f"negative compute burst: {self.cycles}")


@dataclass(frozen=True)
class MemOp:
    """One TCDM access (a word unless *width* narrows it).

    ``tag`` carries the originating site identity — the machine-level
    pc when the stream was compiled from a kernel program — so dynamic
    race witnesses can be matched against static analysis sites.
    """

    address: int
    is_store: bool = False
    width: int = 4
    tag: Optional[int] = None


@dataclass(frozen=True)
class BarrierOp:
    """Join the cluster barrier before continuing the stream."""


OpStream = List[Union[ComputeOp, MemOp, BarrierOp]]


@dataclass
class CoreStats:
    """Per-core execution statistics (the PMU counters of the paper's
    FPGA platform: active and idle cycles per component)."""

    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    stall_cycles: float = 0.0
    barrier_cycles: float = 0.0
    accesses: int = 0

    @property
    def active_cycles(self) -> float:
        """Cycles doing useful work (compute + granted memory)."""
        return self.compute_cycles + self.memory_cycles

    @property
    def total_cycles(self) -> float:
        """All accounted cycles."""
        return (self.compute_cycles + self.memory_cycles
                + self.stall_cycles + self.barrier_cycles)


class Or10nCore:
    """One OR10N core attached to the shared TCDM.

    Given an enabled *telemetry* hub, the core emits cycle-domain spans
    on its ``cluster.core<N>`` lane: ``compute`` bursts, idle ``stall``
    spans, one single-cycle ``memory`` span per granted access, and a
    zero-length ``barrier`` instant at each barrier crossing (the PMU
    trace of the paper's FPGA platform).
    """

    def __init__(self, simulator: Simulator, tcdm: Tcdm, core_id: int,
                 telemetry: Optional[Telemetry] = None,
                 synchronizer=None, race_checker=None):
        self.simulator = simulator
        self.tcdm = tcdm
        self.core_id = core_id
        self.telemetry = telemetry
        self.lane = f"cluster.core{core_id}"
        #: Serves in-stream :class:`BarrierOp`s (optional; the cluster
        #: wires its :class:`~repro.pulp.synchronizer.HardwareSynchronizer`).
        self.synchronizer = synchronizer
        #: When attached, every granted access is reported to the
        #: happens-before checker (:mod:`repro.pulp.hbcheck`).
        self.race_checker = race_checker
        self.stats = CoreStats()

    def run(self, stream: Iterable[Union[ComputeOp, MemOp]]):
        """Generator process executing *stream* (register with the
        simulator via ``simulator.add_process(core.run(stream))``)."""
        for op in stream:
            if isinstance(op, ComputeOp):
                if self.telemetry is not None:
                    self.telemetry.span("compute", self.lane,
                                        self.simulator.now, op.cycles,
                                        domain=CYCLES,
                                        detail=f"{op.cycles:.0f}cy")
                if op.cycles > 0:
                    yield Timeout(op.cycles)
                self.stats.compute_cycles += op.cycles
            elif isinstance(op, MemOp):
                yield from self._access(op)
            elif isinstance(op, BarrierOp):
                if self.synchronizer is None:
                    raise SimulationError(
                        f"core {self.core_id}: BarrierOp in stream but no "
                        f"synchronizer attached")
                yield from self.barrier()
            else:
                raise SimulationError(f"core {self.core_id}: bad op {op!r}")

    def barrier(self):
        """Generator joining the synchronizer's barrier; the wait counts
        as barrier cycles."""
        if self.telemetry is not None:
            self.telemetry.instant("barrier", self.lane, self.simulator.now,
                                   domain=CYCLES)
        before = self.simulator.now
        yield from self.synchronizer.barrier()
        self.stats.barrier_cycles += self.simulator.now - before

    def _access(self, op: MemOp):
        resource = self.tcdm.bank_resource(op.address)
        requested = self.simulator.now
        yield resource.request()
        waited = self.simulator.now - requested
        if self.telemetry is not None:
            if waited > 0:
                self.telemetry.span("stall", self.lane, requested, waited,
                                    domain=CYCLES, detail=f"{waited:.0f}cy",
                                    idle=True)
            self.telemetry.span("memory", self.lane, self.simulator.now, 1.0,
                                domain=CYCLES, detail=f"@{op.address:#x}")
        self.tcdm.note_access(self.simulator.now, op.address)
        if self.race_checker is not None:
            self.race_checker.on_access(self.core_id, op.address, op.width,
                                        op.is_store, tag=op.tag)
        self.stats.stall_cycles += waited
        yield Timeout(1.0)  # single-cycle TCDM service
        resource.release()
        self.stats.memory_cycles += 1.0
        self.stats.accesses += 1
