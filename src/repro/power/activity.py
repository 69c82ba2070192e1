"""Activity profiles: the chi factors of the paper's power equation.

The FPGA emulation platform in the paper carries a performance monitoring
unit "used to measure active and idle cycles for cores, DMAs and
interconnects"; the measured ratios (chi) weight the per-state power
densities (rho).  Here an :class:`ActivityProfile` holds, for every
modeled SoC component, the fraction of benchmark cycles spent in each of
the three back-annotated states: *idle*, *run* and *dma*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Tuple

from repro.errors import PowerModelError


class PulpComponent(enum.Enum):
    """Power-relevant components of the PULP3 SoC."""

    CORE0 = "core0"
    CORE1 = "core1"
    CORE2 = "core2"
    CORE3 = "core3"
    ICACHE = "icache"
    TCDM = "tcdm"          #: L1 banks + low-latency interconnect
    DMA = "dma"
    L2 = "l2"
    SOC = "soc"            #: system bus, FLL, peripherals (always on)


CORES: Tuple[PulpComponent, ...] = (
    PulpComponent.CORE0, PulpComponent.CORE1,
    PulpComponent.CORE2, PulpComponent.CORE3,
)


@dataclass(frozen=True)
class StateFractions:
    """Fractions of cycles one component spends idle / running / in DMA
    traffic.  Must sum to 1 (the component is always in some state)."""

    idle: float = 1.0
    run: float = 0.0
    dma: float = 0.0

    def __post_init__(self) -> None:
        total = self.idle + self.run + self.dma
        if min(self.idle, self.run, self.dma) < -1e-9 or abs(total - 1.0) > 1e-6:
            raise PowerModelError(
                f"state fractions must be non-negative and sum to 1, got {self}")


@dataclass(frozen=True)
class ActivityProfile:
    """chi factors for every component (missing components default idle)."""

    name: str
    fractions: Mapping[PulpComponent, StateFractions] = field(default_factory=dict)

    def __hash__(self) -> int:
        # By value, consistent with the generated __eq__ (dict equality
        # ignores order, and so does a frozenset of its items).
        return hash((self.name, frozenset(self.fractions.items())))

    def chi(self, component: PulpComponent) -> StateFractions:
        """State fractions for *component* (idle if unspecified)."""
        return self.fractions.get(component, StateFractions())

    @cached_property
    def fractions_key(self) -> Tuple[StateFractions, ...]:
        """Every component's :meth:`chi`, in :class:`PulpComponent` order.

        This is all the power equation reads of a profile (the name is a
        label), so two profiles with equal keys draw equal power.  It is
        computed once per profile, for memo keys.
        """
        return tuple(self.chi(component) for component in PulpComponent)

    # -- canonical profiles (the paper's power-analysis input vectors) ------

    @staticmethod
    def idle() -> "ActivityProfile":
        """All components idle: the paper's *idle* input vector."""
        return ActivityProfile("idle", {})

    @staticmethod
    def matmul() -> "ActivityProfile":
        """Cores running with moderate memory pressure: the paper's
        *matmul* input vector (the calibration anchor for Figure 3)."""
        return ActivityProfile.compute(cores_active=4, memory_intensity=0.5)

    @staticmethod
    def dma_transfer() -> "ActivityProfile":
        """DMA streaming with high memory pressure and idle cores: the
        paper's *dma* input vector."""
        run = StateFractions(idle=0.0, run=0.0, dma=1.0)
        return ActivityProfile("dma", {
            PulpComponent.DMA: run,
            PulpComponent.TCDM: run,
            PulpComponent.L2: run,
            PulpComponent.SOC: StateFractions(idle=0.0, run=1.0),
        })

    @staticmethod
    def compute(cores_active: int, memory_intensity: float,
                dma_overlap: float = 0.0, name: str = "compute") -> "ActivityProfile":
        """Profile for a compute phase.

        Parameters
        ----------
        cores_active:
            Number of cores executing (1..4); the rest are clock-gated.
        memory_intensity:
            Fraction of cycles with a TCDM access outstanding (from
            :meth:`repro.isa.report.LoweredReport.memory_intensity`,
            aggregated over the active cores and clamped to 1).
        dma_overlap:
            Fraction of cycles the cluster DMA is simultaneously moving
            double-buffered data.
        """
        if not 0 <= cores_active <= len(CORES):
            raise PowerModelError(f"cores_active out of range: {cores_active}")
        memory_intensity = min(max(float(memory_intensity), 0.0), 1.0)
        dma_overlap = min(max(float(dma_overlap), 0.0), 1.0)
        running = StateFractions(idle=0.0, run=1.0)
        fractions: Dict[PulpComponent, StateFractions] = {
            core: running for core in CORES[:cores_active]
        }
        fractions[PulpComponent.ICACHE] = running
        fractions[PulpComponent.TCDM] = StateFractions(
            idle=max(0.0, 1.0 - memory_intensity - dma_overlap),
            run=memory_intensity,
            dma=min(dma_overlap, 1.0 - memory_intensity),
        )
        if dma_overlap > 0:
            fractions[PulpComponent.DMA] = StateFractions(
                idle=1.0 - dma_overlap, run=0.0, dma=dma_overlap)
            fractions[PulpComponent.L2] = StateFractions(
                idle=1.0 - dma_overlap, run=0.0, dma=dma_overlap)
        fractions[PulpComponent.SOC] = running
        return ActivityProfile(name, fractions)
