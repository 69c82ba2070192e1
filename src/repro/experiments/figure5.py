"""Figure 5: speedup within a total 10 mW power envelope.

**5a** — "pure PULP vs STM32 speedup over the baseline (STM32 at
32 MHz) in all combinations, allowing the accelerator to run at the
maximum speed allowed by the available power envelope", bars annotated
with RISC ops/cycle.  Anchors: up to 60x (strassen), more than 25x for
all fixed-point benchmarks, 20x for the worst case (hog).

**5b** — "the efficiency loss due to [the offload] when we consider a
single iteration of the benchmark ... and how this efficiency can be
recovered by increasing the number of benchmark iterations performed per
each offload", including the double-buffered variant.  Anchors: full
efficiency after ~32 iterations when the MCU (and hence the SPI) is
fast; a plateau when the link bottlenecks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import pricing
from repro.core.envelope import FIGURE5A_HOST_FREQUENCIES
from repro.core.system import HeterogeneousSystem
from repro.kernels.base import Kernel
from repro.kernels.registry import all_kernels
from repro.mcu.stm32l476 import Stm32L476
from repro.units import mhz

BASELINE_FREQUENCY = Stm32L476.BASELINE_FREQUENCY

#: Host frequencies of the Figure 5b curves.
FIGURE5B_HOST_FREQUENCIES = (mhz(2), mhz(4), mhz(8), mhz(16), mhz(26))
#: Iterations-per-offload sweep.
FIGURE5B_ITERATIONS = (1, 2, 4, 8, 16, 32, 64, 128, 256)


# ---------------------------------------------------------------------------
# Figure 5a
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure5aCell:
    """One (benchmark, host frequency) bar of Figure 5a."""

    kernel: str
    host_frequency: float
    pulp_frequency: float
    pulp_voltage: float
    total_power: float
    speedup: float                 #: PULP vs STM32@32MHz (0 if no budget)
    host_only_speedup: float       #: MCU alone at this frequency vs 32 MHz
    pulp_ops_per_cycle: float      #: RISC ops/cycle annotation (PULP)
    host_ops_per_cycle: float      #: RISC ops/cycle annotation (MCU)
    within_budget: bool


@dataclass
class Figure5aResult:
    """The full benchmark x host-frequency grid."""

    cells: List[Figure5aCell]

    def best_speedup(self, kernel: str) -> float:
        """Best in-budget speedup for one benchmark."""
        values = [c.speedup for c in self.cells
                  if c.kernel == kernel and c.within_budget]
        return max(values, default=0.0)

    def kernels(self) -> List[str]:
        """Benchmark names present."""
        seen: Dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.kernel, None)
        return list(seen)


def run_figure5a(threads: int = 4,
                 host_frequencies: Sequence[float] = FIGURE5A_HOST_FREQUENCIES
                 ) -> Figure5aResult:
    """Compute Figure 5a."""
    system = HeterogeneousSystem(threads=threads)
    cells: List[Figure5aCell] = []
    for kernel in all_kernels():
        characterization = pricing.characterize(system, kernel)
        execution = characterization.execution
        risc_ops = pricing.risc_ops(kernel)
        host_cycles = pricing.host_run(system, kernel).cycles
        host_time_baseline = host_cycles / BASELINE_FREQUENCY
        for host_frequency in host_frequencies:
            point = pricing.operating_point(system.envelope, host_frequency,
                                            characterization.activity)
            if point.accelerator_usable:
                pulp_time = execution.wall_cycles / point.pulp_frequency
                speedup = host_time_baseline / pulp_time
            else:
                speedup = 0.0
            cells.append(Figure5aCell(
                kernel=kernel.name,
                host_frequency=host_frequency,
                pulp_frequency=point.pulp_frequency,
                pulp_voltage=point.pulp_voltage,
                total_power=point.total_power,
                speedup=speedup,
                host_only_speedup=host_frequency / BASELINE_FREQUENCY,
                pulp_ops_per_cycle=risc_ops / execution.wall_cycles,
                host_ops_per_cycle=risc_ops / host_cycles,
                within_budget=point.accelerator_usable,
            ))
    return Figure5aResult(cells=cells)


def figure5a_to_json_dict(result: Optional[Figure5aResult] = None) -> dict:
    """Machine-readable Figure 5a (the ``--json`` surface)."""
    if result is None:
        result = run_figure5a()
    return {
        "experiment": "figure5a",
        "cells": [
            {
                "kernel": c.kernel,
                "host_frequency_hz": c.host_frequency,
                "pulp_frequency_hz": c.pulp_frequency,
                "pulp_voltage_v": c.pulp_voltage,
                "total_power_w": c.total_power,
                "speedup": c.speedup,
                "host_only_speedup": c.host_only_speedup,
                "pulp_ops_per_cycle": c.pulp_ops_per_cycle,
                "host_ops_per_cycle": c.host_ops_per_cycle,
                "within_budget": c.within_budget,
            }
            for c in result.cells
        ],
        "best_speedups": {name: result.best_speedup(name)
                          for name in result.kernels()},
    }


def render_figure5a(result: Optional[Figure5aResult] = None) -> str:
    """Text rendering: one row per benchmark, one column per host clock."""
    if result is None:
        result = run_figure5a()
    frequencies = sorted({c.host_frequency for c in result.cells})
    header = f"{'Benchmark':16s} {'ops/cyc':>8s} |" + "".join(
        f" {f / 1e6:5.0f}MHz" for f in frequencies)
    lines = [header, "-" * len(header)]
    for name in result.kernels():
        row = [c for c in result.cells if c.kernel == name]
        by_frequency = {c.host_frequency: c for c in row}
        annotation = row[0].pulp_ops_per_cycle
        cols = "".join(
            f" {by_frequency[f].speedup:7.1f}x" if by_frequency[f].within_budget
            else f" {'--':>8s}"
            for f in frequencies)
        lines.append(f"{name:16s} {annotation:8.2f} |{cols}")
    lines.append("")
    lines.append(f"best speedups: strassen {result.best_speedup('strassen'):.0f}x "
                 f"(paper 60x), hog {result.best_speedup('hog'):.0f}x (paper 20x)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 5b
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure5bPoint:
    """Efficiency at one (host frequency, iterations, buffering) point."""

    host_frequency: float
    iterations: int
    double_buffered: bool
    efficiency: float
    total_time: float


@dataclass
class Figure5bResult:
    """Efficiency curves for one benchmark."""

    kernel: str
    points: List[Figure5bPoint]

    def curve(self, host_frequency: float,
              double_buffered: bool) -> List[Tuple[int, float]]:
        """(iterations, efficiency) series for one configuration."""
        return [(p.iterations, p.efficiency) for p in self.points
                if p.host_frequency == host_frequency
                and p.double_buffered == double_buffered]

    def plateau(self, host_frequency: float,
                double_buffered: bool = False) -> float:
        """Efficiency at the largest iteration count (the curve's limit)."""
        curve = self.curve(host_frequency, double_buffered)
        return curve[-1][1] if curve else 0.0


def run_figure5b(kernel: Optional[Kernel] = None, threads: int = 4,
                 host_frequencies: Sequence[float] = FIGURE5B_HOST_FREQUENCIES,
                 iteration_counts: Sequence[int] = FIGURE5B_ITERATIONS
                 ) -> Figure5bResult:
    """Compute Figure 5b for one benchmark.

    Defaults to ``cnn``: a vision benchmark with the paper's
    one-frame-per-offload structure whose compute/transfer ratio shows
    both regimes — full efficiency recovery at the fast host clocks and
    the link-bound plateau at the slow ones.  Pass ``MatmulKernel`` for
    a transfer-heavy counterpoint.
    """
    if kernel is None:
        from repro.kernels.cnn import CnnKernel
        kernel = CnnKernel()
    system = HeterogeneousSystem(threads=threads)
    characterization = pricing.characterize(system, kernel)
    points: List[Figure5bPoint] = []
    for host_frequency in host_frequencies:
        point = pricing.operating_point(system.envelope, host_frequency,
                                        characterization.activity)
        if not point.accelerator_usable:
            continue
        for double_buffered in (False, True):
            for iterations in iteration_counts:
                timing = pricing.price(system.cost_model, characterization,
                                       point, host_frequency, iterations,
                                       double_buffered)
                points.append(Figure5bPoint(
                    host_frequency=host_frequency,
                    iterations=iterations,
                    double_buffered=double_buffered,
                    efficiency=timing.efficiency,
                    total_time=timing.total_time,
                ))
    return Figure5bResult(kernel=kernel.name, points=points)


def figure5b_to_json_dict(result: Optional[Figure5bResult] = None) -> dict:
    """Machine-readable Figure 5b (the ``--json`` surface)."""
    if result is None:
        result = run_figure5b()
    return {
        "experiment": "figure5b",
        "kernel": result.kernel,
        "points": [
            {
                "host_frequency_hz": p.host_frequency,
                "iterations": p.iterations,
                "double_buffered": p.double_buffered,
                "efficiency": p.efficiency,
                "total_time_s": p.total_time,
            }
            for p in result.points
        ],
    }


def render_figure5b(result: Optional[Figure5bResult] = None) -> str:
    """Text rendering: one block per buffering mode, rows per host clock."""
    if result is None:
        result = run_figure5b()
    iteration_counts = sorted({p.iterations for p in result.points})
    frequencies = sorted({p.host_frequency for p in result.points})
    lines = [f"Figure 5b efficiency curves for {result.kernel!r}"]
    for double_buffered in (False, True):
        label = "double-buffered" if double_buffered else "serial"
        header = f"{label:>18s} |" + "".join(
            f" {n:>6d}" for n in iteration_counts)
        lines.append("")
        lines.append(header)
        lines.append("-" * len(header))
        for frequency in frequencies:
            curve = dict(result.curve(frequency, double_buffered))
            row = "".join(f" {curve.get(n, 0.0):6.1%}"
                          for n in iteration_counts)
            lines.append(f"{frequency / 1e6:15.0f}MHz |{row}")
    return "\n".join(lines)
