"""Operating-point tables for voltage/frequency scaling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

from repro.errors import OperatingPointError
from repro.power.interpolation import PolynomialInterpolator


@dataclass(frozen=True)
class OperatingPoint:
    """One (voltage, max frequency) point, with the leakage measured there."""

    voltage: float
    fmax: float
    leakage: float

    def __post_init__(self) -> None:
        if self.voltage <= 0 or self.fmax <= 0 or self.leakage < 0:
            raise OperatingPointError(f"invalid operating point: {self}")


class OperatingPointTable:
    """Anchored operating points plus interpolation between them.

    The paper's post-layout analysis covers V_DD = 0.5 V to 1.0 V in
    100 mV steps; frequencies between anchors come from the polynomial
    interpolation model, and leakage is interpolated log-linearly.
    """

    def __init__(self, points: Sequence[OperatingPoint], fmax_degree: int = None):
        points = sorted(points, key=lambda p: p.voltage)
        if len(points) < 3:
            raise OperatingPointError("need at least three anchored points")
        self.points: Tuple[OperatingPoint, ...] = tuple(points)
        if fmax_degree is None:
            # Exactly interpolate the anchors by default: the paper's
            # polynomial model only fills in *between* measured points.
            fmax_degree = len(points) - 1
        self.fmax_degree = fmax_degree
        self._fmax = PolynomialInterpolator(
            [p.voltage for p in points], [p.fmax for p in points], fmax_degree)

    @cached_property
    def _segments(self) -> Tuple[Tuple[float, ...], ...]:
        """Per segment: upper voltage, lower voltage, span, log leakages."""
        return tuple((high.voltage, low.voltage, high.voltage - low.voltage,
                      math.log(low.leakage), math.log(high.leakage))
                     for low, high in zip(self.points, self.points[1:]))

    @property
    def v_min(self) -> float:
        """Lowest anchored voltage."""
        return self.points[0].voltage

    @property
    def v_max(self) -> float:
        """Highest anchored voltage."""
        return self.points[-1].voltage

    @property
    def f_min(self) -> float:
        """f_max at the lowest voltage."""
        return self.points[0].fmax

    @property
    def f_max(self) -> float:
        """f_max at the highest voltage."""
        return self.points[-1].fmax

    def fmax_at(self, voltage: float) -> float:
        """Maximum clock frequency sustainable at *voltage*."""
        return self._fmax(voltage)

    def voltage_for(self, frequency: float) -> float:
        """Minimum voltage sustaining *frequency*.

        Frequencies at or below the lowest anchored f_max run at the
        lowest voltage (the FLL and clock dividers allow any frequency
        below f_max).
        """
        if frequency <= 0:
            raise OperatingPointError(f"non-positive frequency: {frequency}")
        if frequency <= self.f_min:
            return self.v_min
        if frequency > self.f_max + 1e-3:
            raise OperatingPointError(
                f"frequency {frequency:.3e} Hz above the table maximum "
                f"{self.f_max:.3e} Hz")
        return self._fmax.inverse(min(frequency, self.f_max))

    def leakage_at(self, voltage: float) -> float:
        """Leakage power at *voltage*, log-linearly interpolated."""
        if voltage < self.v_min - 1e-9 or voltage > self.v_max + 1e-9:
            raise OperatingPointError(
                f"voltage {voltage} outside [{self.v_min}, {self.v_max}]")
        voltage = min(max(voltage, self.v_min), self.v_max)
        for high, low, span, log_low, log_high in self._segments:
            if voltage <= high + 1e-12:
                t = (voltage - low) / span
                return math.exp((1 - t) * log_low + t * log_high)
        return self.points[-1].leakage
