"""The quad-core PULP cluster (discrete-event assembly).

Wires cores, TCDM, DMA and the hardware synchronizer into one runnable
unit.  A :meth:`Cluster.run` executes one op stream per core (plus
optional concurrent DMA jobs), ends with a hardware barrier, and returns
wall cycles together with the PMU-style statistics the power model's
activity factors are derived from.  Under an enabled telemetry hub the
run also emits its per-core, per-bank and per-DMA-channel lanes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs.telemetry import get_telemetry
from repro.pulp.core import CoreStats, Or10nCore, OpStream
from repro.pulp.dma import DmaController, DmaStats
from repro.pulp.icache import SharedICache
from repro.pulp.l2 import L2Memory
from repro.pulp.synchronizer import HardwareSynchronizer
from repro.pulp.tcdm import Tcdm
from repro.sim.engine import Simulator


#: A DMA job: (l2_address, tcdm_address, length, to_tcdm).
DmaJob = Tuple[int, int, int, bool]


@dataclass
class ClusterRun:
    """Result of one cluster execution."""

    wall_cycles: float
    core_stats: List[CoreStats]
    dma_stats: DmaStats
    conflict_rate: float
    barrier_count: int
    #: Queued-access count per TCDM bank (empty for legacy callers).
    conflicts_by_bank: List[int] = field(default_factory=list)
    #: Granted-access count per TCDM bank.
    grants_by_bank: List[int] = field(default_factory=list)

    @property
    def busiest_core_cycles(self) -> float:
        """Cycles of the most loaded core (the critical path)."""
        return max((s.total_cycles for s in self.core_stats), default=0.0)

    def activity_ratio(self, core_index: int) -> float:
        """chi_run of one core: active cycles over wall cycles."""
        if self.wall_cycles == 0:
            return 0.0
        return self.core_stats[core_index].active_cycles / self.wall_cycles

    def memory_intensity(self) -> float:
        """TCDM accesses per wall cycle across the cluster (chi for the
        TCDM component, capped at 1)."""
        if self.wall_cycles == 0:
            return 0.0
        accesses = sum(s.accesses for s in self.core_stats)
        return min(1.0, accesses / self.wall_cycles)


class Cluster:
    """The PULP quad-core cluster."""

    CORES = 4

    def __init__(self, tcdm_size: int = Tcdm.DEFAULT_SIZE,
                 banks: int = Tcdm.DEFAULT_BANKS,
                 l2: Optional[L2Memory] = None,
                 icache: Optional[SharedICache] = None):
        self.tcdm_size = tcdm_size
        self.banks = banks
        self.l2 = l2 if l2 is not None else L2Memory()
        self.icache = icache if icache is not None else SharedICache()
        self.last_run: Optional[ClusterRun] = None

    def run(self, streams: Sequence[OpStream],
            dma_jobs: Sequence[DmaJob] = (),
            race_checker=None) -> ClusterRun:
        """Execute one op stream per core plus optional DMA traffic.

        Fewer than four streams leaves the remaining cores clock-gated
        (they still join the final barrier through the synchronizer's
        participant count, which is set to the active cores only, as the
        runtime powers unused cores down at fork time).

        The run reads the active telemetry hub once.  When it is
        enabled, the cores, TCDM banks and DMA channels emit cycle-domain
        spans straight into it, on the ``cluster.core<N>``,
        ``tcdm.bank<N>`` and ``dma.ch<N>`` lanes (see :class:`Or10nCore`,
        :meth:`Tcdm.note_access` and :class:`DmaController`); a disabled
        hub costs one ``is None`` check per event and records nothing.

        An optional *race_checker* (:mod:`repro.pulp.hbcheck`) receives
        every granted core access and every barrier completion — the
        dynamic cross-validation hook of the static OR011 rule.
        """
        if not 1 <= len(streams) <= self.CORES:
            raise ConfigurationError(
                f"need 1..{self.CORES} streams, got {len(streams)}")
        hub = get_telemetry()
        telemetry = hub if hub.enabled else None
        simulator = Simulator()
        tcdm = Tcdm(simulator, self.tcdm_size, self.banks,
                    telemetry=telemetry)
        synchronizer = HardwareSynchronizer(simulator, participants=len(streams))
        if race_checker is not None:
            synchronizer.observers.append(race_checker.on_barrier)
        dma = DmaController(simulator, self.l2, tcdm, telemetry=telemetry)
        cores = [Or10nCore(simulator, tcdm, i, telemetry=telemetry,
                           synchronizer=synchronizer,
                           race_checker=race_checker)
                 for i in range(len(streams))]

        def core_process(core: Or10nCore, stream: OpStream):
            yield from core.run(stream)
            yield from core.barrier()

        for core, stream in zip(cores, streams):
            simulator.add_process(core_process(core, stream),
                                  name=f"core{core.core_id}")
        for job in dma_jobs:
            l2_address, tcdm_address, length, to_tcdm = job
            simulator.add_process(
                dma.transfer(l2_address, tcdm_address, length, to_tcdm),
                name="dma")

        wall = simulator.run_all()
        run = ClusterRun(
            wall_cycles=wall,
            core_stats=[core.stats for core in cores],
            dma_stats=dma.stats,
            conflict_rate=tcdm.conflict_rate(),
            barrier_count=synchronizer.barriers_completed,
            conflicts_by_bank=tcdm.conflicts_by_bank(),
            grants_by_bank=tcdm.grants_by_bank(),
        )
        self.last_run = run
        return run
