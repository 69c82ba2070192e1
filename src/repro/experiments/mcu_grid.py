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

from repro.core.system import HeterogeneousSystem
from repro.experiments import figure3
from repro.kernels.registry import all_kernels


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
    """Compute the all-kernel efficiency grid: Figure 3's sweep, run on
    every kernel."""
    system = HeterogeneousSystem(threads=threads)
    rows: List[GridRow] = []
    for kernel in all_kernels():
        result = figure3.run(kernel=kernel, system=system)
        rows.append(GridRow(
            kernel=kernel.name,
            pulp_gops_per_watt=result.pulp_peak.gops_per_watt,
            best_mcu=result.best_mcu.device,
            best_mcu_gops_per_watt=result.best_mcu.gops_per_watt))
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
