"""Concurrent host task alongside the accelerator (paper Section V).

"While in this work we mainly concentrate on a single task that is
performed either on the host or on the accelerator, we modeled our
power budget to allow for an additional, separate task to be performed
on the host at the same time.  This would allow for even more complex
functionality to be performed in the sub-10mW space, taking advantage
of the relative strengths of the host and the accelerator."

The model: the host executes its own control-oriented workload (a duty
cycle at its clock) while the accelerator crunches the offloaded
kernel; the envelope solver already keeps the host's *active* power
inside the budget, so the question this module answers is how much
host-side work fits at each operating point and what it costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import BudgetError, ConfigurationError
from repro.core import pricing
from repro.core.system import HeterogeneousSystem
from repro.kernels.base import Kernel
from repro.units import mhz


@dataclass(frozen=True)
class HostTask:
    """A background task on the host: so many cycles per period."""

    name: str
    cycles_per_period: float
    period: float

    def __post_init__(self) -> None:
        if self.cycles_per_period <= 0 or self.period <= 0:
            raise ConfigurationError(f"invalid host task: {self}")

    def utilization(self, host_frequency: float) -> float:
        """Fraction of the host's cycles the task needs at *frequency*."""
        available = host_frequency * self.period
        return self.cycles_per_period / available


@dataclass
class DualTaskPoint:
    """One feasible operating point for kernel + host task."""

    host_frequency: float
    host_utilization: float
    accelerator_speedup: float
    total_power: float
    feasible: bool


class DualTaskModel:
    """Finds operating points where both workloads fit the envelope."""

    def __init__(self, system: Optional[HeterogeneousSystem] = None):
        self.system = system if system is not None else HeterogeneousSystem()

    def evaluate(self, kernel: Kernel, task: HostTask,
                 host_frequencies: Sequence[float] = (
                     mhz(2), mhz(4), mhz(8), mhz(16), mhz(26)),
                 ) -> List[DualTaskPoint]:
        """Sweep host clocks; a point is feasible when the host task's
        utilization fits (< 100 %) and the accelerator still gets power."""
        characterization = pricing.characterize(self.system, kernel)
        execution = characterization.execution
        baseline_time = pricing.host_run(self.system, kernel).time

        points: List[DualTaskPoint] = []
        for host_frequency in host_frequencies:
            utilization = task.utilization(host_frequency)
            point = pricing.operating_point(self.system.envelope,
                                            host_frequency,
                                            characterization.activity)
            feasible = utilization < 1.0 and point.accelerator_usable
            speedup = 0.0
            if point.accelerator_usable:
                pulp_time = execution.wall_cycles / point.pulp_frequency
                speedup = baseline_time / pulp_time
            points.append(DualTaskPoint(
                host_frequency=host_frequency,
                host_utilization=utilization,
                accelerator_speedup=speedup,
                total_power=point.total_power,
                feasible=feasible,
            ))
        return points

    def best(self, kernel: Kernel, task: HostTask, **kwargs) -> DualTaskPoint:
        """The feasible point with the highest accelerator speedup."""
        feasible = [p for p in self.evaluate(kernel, task, **kwargs)
                    if p.feasible]
        if not feasible:
            raise BudgetError(
                f"no operating point fits task {task.name!r} plus "
                f"kernel {kernel.name!r} in the envelope")
        return max(feasible, key=lambda p: p.accelerator_speedup)
