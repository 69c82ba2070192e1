"""Device-side OpenMP execution model.

Combines the analytic parallel timing of
:func:`repro.pulp.timing.parallel_wall_cycles` with the runtime construct
costs of :class:`~repro.runtime.overheads.OmpOverheads`, producing the
quantities Figure 4 (right) reports: parallel speedup versus a single
core, and the runtime overhead fraction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import RuntimeModelError
from repro.isa.program import Loop, Program
from repro.isa.report import LoweredReport
from repro.isa.target import Target
from repro.obs.telemetry import CYCLES, get_telemetry
from repro.pulp.timing import ContentionModel, chunk_trips
from repro.runtime.overheads import OmpOverheads
from repro.units import ordered_sum


class Schedule(enum.Enum):
    """OpenMP ``for`` schedules supported by the runtime."""

    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class BarrierSite:
    """One implicit join barrier: the team-wide synchronization ending a
    parallel region.  The static concurrency analyzer's barrier-phase
    intervals (``OR012``) are checked against this sequence."""

    region: int          #: parallel-region index, in program order
    cycle: float         #: wall cycle at which the team crosses the join
    threads: int         #: team size synchronizing at the barrier


@dataclass
class ParallelExecution:
    """Result of executing one kernel program on the cluster."""

    threads: int
    wall_cycles: float
    work_cycles: float          #: compute cycles on the critical path
    serial_cycles: float        #: serial (master-only) portion
    overhead_cycles: float      #: OpenMP runtime cycles
    memory_accesses: float
    parallel_regions: int
    #: Implicit join barriers crossed, one per parallel region.
    barrier_sites: List[BarrierSite] = field(default_factory=list)

    @property
    def barriers(self) -> int:
        """Team-wide barriers crossed during the execution."""
        return len(self.barrier_sites)

    @property
    def overhead_fraction(self) -> float:
        """Runtime overhead over total execution (the paper's 6 % metric)."""
        if self.wall_cycles == 0:
            return 0.0
        return self.overhead_cycles / self.wall_cycles

    @property
    def memory_intensity(self) -> float:
        """Cluster TCDM accesses per wall cycle, capped at 1."""
        if self.wall_cycles == 0:
            return 0.0
        return min(1.0, self.memory_accesses / self.wall_cycles)


class DeviceOpenMp:
    """The streamlined OpenMP runtime running on the PULP cluster."""

    def __init__(self, target: Target, threads: int = 4,
                 overheads: Optional[OmpOverheads] = None,
                 contention: Optional[ContentionModel] = None,
                 schedule: Schedule = Schedule.STATIC):
        if threads < 1:
            raise RuntimeModelError(f"threads must be >= 1, got {threads}")
        self.target = target
        self.threads = threads
        self.overheads = overheads if overheads is not None else OmpOverheads()
        self.contention = contention if contention is not None else ContentionModel()
        self.schedule = schedule

    def execute(self, program: Program) -> ParallelExecution:
        """Execute *program*: top-level parallelizable loops run on the
        team, everything else on the master core."""
        telemetry = get_telemetry()
        wall = 0.0
        work = 0.0
        serial = 0.0
        overhead = 0.0
        accesses = 0.0
        regions = 0
        barrier_sites: List[BarrierSite] = []
        for index, node in enumerate(program.body):
            if isinstance(node, Loop) and node.parallelizable and self.threads > 1:
                region = self._parallel_region(node)
                if telemetry.enabled and region.wall > 0:
                    telemetry.span(f"parallel[{regions}]", "omp", wall,
                                   region.wall, domain=CYCLES,
                                   threads=self.threads,
                                   schedule=self.schedule.value,
                                   overhead_cycles=region.overhead,
                                   trips=node.trips)
                wall += region.wall
                work += region.work
                overhead += region.overhead
                accesses += region.accesses
                barrier_sites.append(BarrierSite(
                    region=regions, cycle=wall, threads=self.threads))
                regions += 1
            else:
                report = self.target.lower_nodes([node])
                if telemetry.enabled and report.cycles > 0:
                    telemetry.span(f"serial[{index}]", "omp", wall,
                                   report.cycles, domain=CYCLES,
                                   instructions=report.instructions)
                wall += report.cycles
                work += report.cycles
                serial += report.cycles
                accesses += report.memory_accesses
        return ParallelExecution(
            threads=self.threads,
            wall_cycles=wall,
            work_cycles=work,
            serial_cycles=serial,
            overhead_cycles=overhead,
            memory_accesses=accesses,
            parallel_regions=regions,
            barrier_sites=barrier_sites,
        )

    def speedup_vs_single(self, program: Program) -> float:
        """Parallel speedup over the same runtime with one thread."""
        single = DeviceOpenMp(self.target, 1, self.overheads,
                              self.contention, self.schedule)
        return single.execute(program).wall_cycles \
            / self.execute(program).wall_cycles

    # -- internals ---------------------------------------------------------------

    @dataclass
    class _Region:
        wall: float
        work: float
        overhead: float
        accesses: float

    def _parallel_region(self, loop: Loop) -> "DeviceOpenMp._Region":
        overhead = self.overheads.region_fixed_cost(self.threads, loop.reduction)
        if self.schedule is Schedule.STATIC:
            # Chunks take at most two lengths; equal chunks lower alike.
            lowered: Dict[int, LoweredReport] = {}
            reports = []
            for chunk in chunk_trips(loop.trips, self.threads):
                if chunk > 0:
                    report = lowered.get(chunk)
                    if report is None:
                        report = lowered[chunk] = self.target.lower_nodes(
                            [loop.with_trips(chunk)])
                    reports.append(report)
            per_thread = [r.cycles for r in reports]
        else:
            # Dynamic: unit chunks, self-balancing; cost a dequeue per chunk.
            per_iteration = self.target.lower_nodes([loop.with_trips(1)])
            chunks_per_thread = chunk_trips(loop.trips, self.threads)
            reports = []
            per_thread = []
            for count in chunks_per_thread:
                if count == 0:
                    continue
                cycles = count * (per_iteration.cycles
                                  + self.overheads.dynamic_chunk)
                per_thread.append(cycles)
                reports.append(per_iteration)
            overhead += loop.trips * self.overheads.dynamic_chunk / max(1, self.threads)
        if not per_thread:
            return self._Region(wall=overhead, work=0.0,
                                overhead=overhead, accesses=0.0)
        if self.schedule is Schedule.STATIC:
            accesses = ordered_sum([r.memory_accesses for r in reports])
            busiest = max(per_thread)
        else:
            accesses = reports[0].memory_accesses * loop.trips
            busiest = max(per_thread)
        intensity = min(1.0, accesses / (busiest * len(per_thread))) \
            if busiest > 0 else 0.0
        factor = self.contention.stall_factor(len(per_thread), intensity)
        wall = busiest * factor + overhead
        return self._Region(wall=wall, work=busiest * factor,
                            overhead=overhead, accesses=accesses)
