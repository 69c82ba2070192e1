"""Energy accounting over execution phases.

An :class:`EnergyAccount` accumulates (duration, power) phases — compute,
transfer, sleep — and reports total energy, average power and per-phase
breakdowns.  Used by the offload cost model and the experiment harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import PowerModelError
from repro.units import ordered_sum


@dataclass(frozen=True)
class Phase:
    """One timed phase at constant average power."""

    label: str
    duration: float
    power: float

    def __post_init__(self) -> None:
        if self.duration < 0 or self.power < 0:
            raise PowerModelError(f"negative duration/power in phase {self}")

    @property
    def energy(self) -> float:
        """Energy of the phase in joules."""
        return self.duration * self.power


@dataclass
class EnergyAccount:
    """Accumulates phases and answers energy/power queries."""

    phases: List[Phase] = field(default_factory=list)

    def add(self, label: str, duration: float, power: float) -> None:
        """Record a phase."""
        self.phases.append(Phase(label, duration, power))

    def extend(self, other: "EnergyAccount") -> None:
        """Append all phases of another account."""
        self.phases.extend(other.phases)

    @property
    def total_time(self) -> float:
        """Sum of phase durations (phases are assumed sequential)."""
        return ordered_sum([p.duration for p in self.phases])

    @property
    def total_energy(self) -> float:
        """Total energy in joules."""
        return ordered_sum([p.energy for p in self.phases])

    @property
    def average_power(self) -> float:
        """Energy-weighted average power over the account."""
        time = self.total_time
        if time == 0:
            return 0.0
        return self.total_energy / time

    def energy_by_label(self) -> Dict[str, float]:
        """Energy per phase label."""
        result: Dict[str, float] = {}
        for phase in self.phases:
            result[phase.label] = result.get(phase.label, 0.0) + phase.energy
        return result

    def time_by_label(self) -> Dict[str, float]:
        """Time per phase label."""
        result: Dict[str, float] = {}
        for phase in self.phases:
            result[phase.label] = result.get(phase.label, 0.0) + phase.duration
        return result

    def power_by_label(self) -> Dict[str, float]:
        """Average power per phase label (energy over time).

        For the single-phase-per-label accounts the offload model
        builds, this is exactly the phase's constant power — the basis
        for attributing per-span energy in the telemetry layer so that
        span roll-ups reproduce :attr:`total_energy`.
        """
        powers: Dict[str, float] = {}
        mixed: Dict[str, bool] = {}
        for phase in self.phases:
            if phase.label not in powers:
                powers[phase.label] = phase.power
            elif powers[phase.label] != phase.power:
                mixed[phase.label] = True
        for label in mixed:
            time = self.time_by_label()[label]
            powers[label] = (self.energy_by_label()[label] / time
                             if time else 0.0)
        return powers

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable snapshot (for ``--json`` outputs)."""
        return {
            "total_time_s": self.total_time,
            "total_energy_j": self.total_energy,
            "average_power_w": self.average_power,
            "phases": [
                {"label": p.label, "duration_s": p.duration,
                 "power_w": p.power, "energy_j": p.energy}
                for p in self.phases
            ],
            "energy_by_label_j": self.energy_by_label(),
        }
