"""Supplementary: the Figure-3 efficiency comparison on *every* kernel.

The paper plots GOPS vs power only for matmul ("a quasi-ideal case for
both parallelization and microarchitectural optimizations").  This grid
extends the comparison to all ten benchmarks: for each kernel, PULP's
best energy efficiency against the best commercial MCU's — showing that
the 1.5-orders-of-magnitude slack is narrowest exactly where the paper's
Figure 4 predicts (hog, where OR10N loses its architectural edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.isa.baseline import BaselineRiscTarget
from repro.kernels.registry import all_kernels
from repro.mcu.catalog import MCU_CATALOG


@dataclass(frozen=True)
class GridRow:
    """Best-efficiency comparison for one kernel."""

    kernel: str
    pulp_gops_per_watt: float
    best_mcu: str
    best_mcu_gops_per_watt: float

    @property
    def efficiency_gap(self) -> float:
        """PULP over the best MCU."""
        if self.best_mcu_gops_per_watt == 0:
            return float("inf")
        return self.pulp_gops_per_watt / self.best_mcu_gops_per_watt


def run(threads: int = 4) -> List[GridRow]:
    """Compute the all-kernel efficiency grid."""
    system = HeterogeneousSystem(threads=threads)
    baseline = BaselineRiscTarget()
    power_model = system.soc.power_model
    rows: List[GridRow] = []
    for kernel in all_kernels():
        characterization = pricing.characterize(system, kernel)
        program = characterization.program
        risc_ops = baseline.risc_ops(program)
        pulp_best = 0.0
        for op in power_model.anchored_points():
            time = characterization.execution.wall_cycles / op.fmax
            power = power_model.total_power(op.fmax, op.voltage,
                                            characterization.activity)
            pulp_best = max(pulp_best, risc_ops / time / 1e9 / power)
        mcu_best_name = ""
        mcu_best = 0.0
        for device in MCU_CATALOG:
            time = device.run(program).time
            power = device.active_power(device.fmax)
            efficiency = risc_ops / time / 1e9 / power
            if efficiency > mcu_best:
                mcu_best = efficiency
                mcu_best_name = device.name
        rows.append(GridRow(
            kernel=kernel.name,
            pulp_gops_per_watt=pulp_best,
            best_mcu=mcu_best_name,
            best_mcu_gops_per_watt=mcu_best))
    return rows


def render(rows: Optional[List[GridRow]] = None) -> str:
    """Text table of the grid."""
    if rows is None:
        rows = run()
    header = (f"{'kernel':16s} {'PULP GOPS/W':>12s} {'best MCU':>14s} "
              f"{'MCU GOPS/W':>11s} {'gap':>6s}")
    lines = ["best energy efficiency per kernel:", header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row.kernel:16s} {row.pulp_gops_per_watt:12.0f} "
                     f"{row.best_mcu:>14s} "
                     f"{row.best_mcu_gops_per_watt:11.1f} "
                     f"{row.efficiency_gap:5.0f}x")
    return "\n".join(lines)
