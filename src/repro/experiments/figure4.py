"""Figure 4: architectural speedup (left) and parallel speedup (right).

Left: cycles of each benchmark on one OR10N core versus a Cortex-M3 and
a Cortex-M4, all with every available microarchitectural optimization
active.  Paper anchors: integer tests 2-2.5x, fixed-point tests lower,
hog a slight *slowdown* versus the M4.

Right: OpenMP speedup of four PULP cores over one, against the ideal 4x;
the gap decomposes into Amdahl non-idealities and the runtime overhead
(paper: 6 % on average).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.isa.cortexm import CortexM3Target
from repro.kernels.registry import all_kernels


@dataclass(frozen=True)
class Figure4Row:
    """Both panels' values for one benchmark."""

    name: str
    or10n_cycles: float
    m4_cycles: float
    m3_cycles: float
    parallel_speedup: float
    runtime_overhead: float

    @property
    def arch_speedup_vs_m4(self) -> float:
        """Architectural speedup versus the Cortex-M4."""
        return self.m4_cycles / self.or10n_cycles

    @property
    def arch_speedup_vs_m3(self) -> float:
        """Architectural speedup versus the Cortex-M3."""
        return self.m3_cycles / self.or10n_cycles


@dataclass
class Figure4Result:
    """All rows plus the aggregate the paper quotes."""

    rows: List[Figure4Row]
    threads: int = 4

    @property
    def mean_runtime_overhead(self) -> float:
        """Average OpenMP runtime overhead across benchmarks."""
        return sum(r.runtime_overhead for r in self.rows) / len(self.rows)

    @property
    def mean_parallel_speedup(self) -> float:
        """Average parallel speedup across benchmarks."""
        return sum(r.parallel_speedup for r in self.rows) / len(self.rows)


def run(threads: int = 4) -> Figure4Result:
    """Compute both panels of Figure 4.

    One OR10N core is the 1-thread characterization (one team member
    runs every node, with no OpenMP construct); the STM32-L476's host
    baseline is the Cortex-M4.
    """
    single = HeterogeneousSystem(threads=1)
    team = HeterogeneousSystem(threads=threads)
    m3 = CortexM3Target()
    rows: List[Figure4Row] = []
    for kernel in all_kernels():
        core = pricing.characterize(single, kernel)
        parallel = pricing.characterize(team, kernel).execution
        rows.append(Figure4Row(
            name=kernel.name,
            or10n_cycles=core.execution.wall_cycles,
            m4_cycles=pricing.host_run(team, kernel).cycles,
            m3_cycles=m3.lower(core.program).cycles,
            parallel_speedup=(core.execution.wall_cycles
                              / parallel.wall_cycles),
            runtime_overhead=parallel.overhead_fraction,
        ))
    return Figure4Result(rows=rows, threads=threads)


def to_json_dict(result: Optional[Figure4Result] = None) -> dict:
    """Machine-readable Figure 4 (the ``--json`` surface)."""
    if result is None:
        result = run()
    return {
        "experiment": "figure4",
        "threads": result.threads,
        "rows": [
            {
                "name": row.name,
                "or10n_cycles": row.or10n_cycles,
                "m4_cycles": row.m4_cycles,
                "m3_cycles": row.m3_cycles,
                "arch_speedup_vs_m4": row.arch_speedup_vs_m4,
                "arch_speedup_vs_m3": row.arch_speedup_vs_m3,
                "parallel_speedup": row.parallel_speedup,
                "runtime_overhead": row.runtime_overhead,
            }
            for row in result.rows
        ],
        "mean_parallel_speedup": result.mean_parallel_speedup,
        "mean_runtime_overhead": result.mean_runtime_overhead,
    }


def render(result: Optional[Figure4Result] = None) -> str:
    """Text rendering of both panels."""
    if result is None:
        result = run()
    header = (f"{'Benchmark':16s} {'vs M4':>6s} {'vs M3':>6s} | "
              f"{'parallel':>8s} {'(ideal':>6s} {'ovh)':>6s}")
    lines = [header, "-" * len(header)]
    for row in result.rows:
        lines.append(
            f"{row.name:16s} {row.arch_speedup_vs_m4:6.2f} "
            f"{row.arch_speedup_vs_m3:6.2f} | "
            f"{row.parallel_speedup:7.2f}x {result.threads:5d}x "
            f"{row.runtime_overhead:6.1%}")
    lines.append("")
    lines.append(f"mean parallel speedup {result.mean_parallel_speedup:.2f}x, "
                 f"mean OpenMP runtime overhead "
                 f"{result.mean_runtime_overhead:.1%} (paper: 6%)")
    return "\n".join(lines)
