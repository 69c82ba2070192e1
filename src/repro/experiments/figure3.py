"""Figure 3: energy efficiency on the matmul test, PULP vs MCUs.

"Figure 3 compares throughput in terms of GOPS (billions of RISC
operations per second) and power between PULP and several commercial
MCUs ... on the matmul benchmark."  The paper's anchors: PULP peaks at
304 GOPS/W while consuming 1.48 mW; the MCUs stay below 5 GOPS/W apart
from the Ambiq Apollo (~10 GOPS/W at a low-performance ~24 MOPS point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.isa.baseline import BaselineRiscTarget
from repro.kernels.matmul import MatmulKernel
from repro.mcu.catalog import MCU_CATALOG
from repro.units import format_watts


@dataclass(frozen=True)
class EfficiencyPoint:
    """One (device, operating point) sample of Figure 3."""

    device: str
    kind: str               #: "pulp" or "mcu"
    frequency: float
    voltage: float
    power: float
    gops: float

    @property
    def gops_per_watt(self) -> float:
        """Energy efficiency."""
        if self.power == 0:
            return 0.0
        return self.gops / self.power


@dataclass
class Figure3Result:
    """All samples plus the headline anchors."""

    points: List[EfficiencyPoint]

    @property
    def pulp_points(self) -> List[EfficiencyPoint]:
        """PULP voltage sweep samples."""
        return [p for p in self.points if p.kind == "pulp"]

    @property
    def mcu_points(self) -> List[EfficiencyPoint]:
        """Commercial MCU samples."""
        return [p for p in self.points if p.kind == "mcu"]

    @property
    def pulp_peak(self) -> EfficiencyPoint:
        """PULP's best-efficiency operating point."""
        return max(self.pulp_points, key=lambda p: p.gops_per_watt)

    @property
    def best_mcu(self) -> EfficiencyPoint:
        """Most efficient MCU sample."""
        return max(self.mcu_points, key=lambda p: p.gops_per_watt)

    def efficiency_gap(self) -> float:
        """PULP peak over the best MCU (the paper's ~1.5 orders of
        magnitude efficiency slack)."""
        return self.pulp_peak.gops_per_watt / self.best_mcu.gops_per_watt


def run(threads: int = 4) -> Figure3Result:
    """Compute Figure 3's scatter."""
    system = HeterogeneousSystem(threads=threads)
    matmul = pricing.characterize(system, MatmulKernel("char"))
    program = matmul.program
    risc_ops = BaselineRiscTarget().risc_ops(program)
    points: List[EfficiencyPoint] = []

    # PULP across its anchored operating points.
    power_model = system.soc.power_model
    for op in power_model.anchored_points():
        time = matmul.execution.wall_cycles / op.fmax
        power = power_model.total_power(op.fmax, op.voltage, matmul.activity)
        points.append(EfficiencyPoint(
            device="PULP", kind="pulp", frequency=op.fmax,
            voltage=op.voltage, power=power,
            gops=risc_ops / time / 1e9))

    # Commercial MCUs at their datasheet operating points.
    for device in MCU_CATALOG:
        execution_time = device.run(program).time
        points.append(EfficiencyPoint(
            device=device.name, kind="mcu", frequency=device.fmax,
            voltage=device.voltage,
            power=device.active_power(device.fmax),
            gops=risc_ops / execution_time / 1e9))
    return Figure3Result(points=points)


def to_json_dict(result: Optional[Figure3Result] = None) -> dict:
    """Machine-readable Figure 3 (the ``--json`` surface)."""
    if result is None:
        result = run()
    peak = result.pulp_peak
    best = result.best_mcu
    return {
        "experiment": "figure3",
        "points": [
            {
                "device": p.device,
                "kind": p.kind,
                "frequency_hz": p.frequency,
                "voltage_v": p.voltage,
                "power_w": p.power,
                "gops": p.gops,
                "gops_per_watt": p.gops_per_watt,
            }
            for p in result.points
        ],
        "pulp_peak_gops_per_watt": peak.gops_per_watt,
        "pulp_peak_power_w": peak.power,
        "best_mcu": best.device,
        "best_mcu_gops_per_watt": best.gops_per_watt,
        "efficiency_gap": result.efficiency_gap(),
    }


def render(result: Optional[Figure3Result] = None) -> str:
    """Text rendering of the scatter plus the headline anchors."""
    if result is None:
        result = run()
    header = (f"{'Device':14s} {'f':>9s} {'V':>5s} {'Power':>10s} "
              f"{'GOPS':>7s} {'GOPS/W':>8s}")
    lines = [header, "-" * len(header)]
    for p in result.points:
        lines.append(
            f"{p.device:14s} {p.frequency / 1e6:6.0f}MHz {p.voltage:5.2f} "
            f"{format_watts(p.power):>10s} {p.gops:7.3f} "
            f"{p.gops_per_watt:8.1f}")
    peak = result.pulp_peak
    lines.append("")
    lines.append(
        f"PULP peak efficiency: {peak.gops_per_watt:.0f} GOPS/W at "
        f"{format_watts(peak.power)} (paper: 304 GOPS/W at 1.48 mW)")
    lines.append(
        f"best MCU: {result.best_mcu.device} at "
        f"{result.best_mcu.gops_per_watt:.1f} GOPS/W "
        f"(paper: Apollo ~10 GOPS/W); gap {result.efficiency_gap():.0f}x")
    return "\n".join(lines)
