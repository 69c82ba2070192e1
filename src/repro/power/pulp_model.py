"""The PULP3 power model.

Implements the paper's average dynamic power equation::

    P_d = f_clk * sum_i (chi_idle,i * rho_idle,i
                         + chi_run,i * rho_run,i
                         + chi_dma,i * rho_dma,i)

where ``chi_i`` is the ratio of active cycles of the i-th component over
the total benchmark cycles (an :class:`~repro.power.activity.ActivityProfile`)
and ``rho_i`` is the dynamic power density of that component in that
state.  Total power adds the leakage of the operating point's voltage.

Calibration (DESIGN.md section 4)
---------------------------------
The per-component densities and the operating-point anchors are synthetic
(the real ones come from post-layout analysis of the taped-out PULP3
chip, which we do not have).  They were solved against the five numbers
the paper prints:

* matmul activity at 0.5 V totals ~19.9 uW/MHz of dynamic density and
  0.55 mW leakage, so the 46 MHz @ 0.5 V point burns ~1.47 mW and, with
  the ~9.5 RISC-op/cycle 4-core matmul throughput of the ISA model,
  yields ~300 GOPS/W — the paper's 304 GOPS/W @ 1.48 mW peak;
* the same densities at ~0.7 V sustain ~200 MHz within ~9 mW, which is
  what the 10 mW envelope of Figure 5a requires for the 60x strassen
  speedup;
* leakage is substantial at low voltage because PULP applies forward
  body bias to reach frequency there (the "boost" knob of Section III-B).

Densities scale with voltage as ``(V / V_nom)**2`` (CV^2 dynamic power).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.errors import OperatingPointError, PowerModelError
from repro.power.activity import ActivityProfile, PulpComponent
from repro.power.operating_point import OperatingPoint, OperatingPointTable
from repro.units import mhz, mw, uw_per_mhz

#: Nominal voltage at which densities are specified.
V_NOMINAL = 1.0


@dataclass(frozen=True)
class ComponentDensity:
    """Dynamic power density (W/Hz at V_NOMINAL) per back-annotated state."""

    idle: float
    run: float
    dma: float


#: Per-component dynamic power densities at 1.0 V (synthetic, calibrated).
PULP3_DENSITIES: Mapping[PulpComponent, ComponentDensity] = {
    PulpComponent.CORE0: ComponentDensity(uw_per_mhz(1.2), uw_per_mhz(13.0), uw_per_mhz(1.2)),
    PulpComponent.CORE1: ComponentDensity(uw_per_mhz(1.2), uw_per_mhz(13.0), uw_per_mhz(1.2)),
    PulpComponent.CORE2: ComponentDensity(uw_per_mhz(1.2), uw_per_mhz(13.0), uw_per_mhz(1.2)),
    PulpComponent.CORE3: ComponentDensity(uw_per_mhz(1.2), uw_per_mhz(13.0), uw_per_mhz(1.2)),
    PulpComponent.ICACHE: ComponentDensity(uw_per_mhz(1.0), uw_per_mhz(11.0), uw_per_mhz(1.0)),
    PulpComponent.TCDM: ComponentDensity(uw_per_mhz(2.0), uw_per_mhz(24.0), uw_per_mhz(24.0)),
    PulpComponent.DMA: ComponentDensity(uw_per_mhz(0.6), uw_per_mhz(8.0), uw_per_mhz(8.0)),
    PulpComponent.L2: ComponentDensity(uw_per_mhz(1.6), uw_per_mhz(12.0), uw_per_mhz(12.0)),
    PulpComponent.SOC: ComponentDensity(uw_per_mhz(1.4), uw_per_mhz(1.4), uw_per_mhz(1.4)),
}

#: PULP3 anchored operating points: post-layout-style table, 0.5-1.0 V in
#: 100 mV steps (voltage, f_max, leakage).
PULP3_TABLE = OperatingPointTable([
    OperatingPoint(0.5, mhz(46), mw(0.55)),
    OperatingPoint(0.6, mhz(115), mw(0.80)),
    OperatingPoint(0.7, mhz(195), mw(1.20)),
    OperatingPoint(0.8, mhz(285), mw(1.75)),
    OperatingPoint(0.9, mhz(370), mw(2.50)),
    OperatingPoint(1.0, mhz(450), mw(3.50)),
])


class PulpPowerModel:
    """Evaluate PULP power at any (frequency, voltage, activity) point."""

    def __init__(self,
                 table: OperatingPointTable = PULP3_TABLE,
                 densities: Mapping[PulpComponent, ComponentDensity] = PULP3_DENSITIES):
        missing = [c for c in PulpComponent if c not in densities]
        if missing:
            raise PowerModelError(f"missing densities for {missing}")
        self.table = table
        self.densities = densities

    def memo_key(self) -> Tuple:
        """Value identity of the model: every anchor and density it reads."""
        return (self.table.points, self.table.fmax_degree,
                tuple(self.densities[component] for component in PulpComponent))

    # -- the paper's equation -------------------------------------------------

    def nominal_density(self, activity: ActivityProfile) -> float:
        """Activity-weighted dynamic density (W/Hz) at ``V_NOMINAL``."""
        total = 0.0
        for component in PulpComponent:
            rho = self.densities[component]
            chi = activity.chi(component)
            total += chi.idle * rho.idle + chi.run * rho.run + chi.dma * rho.dma
        return total

    def dynamic_density(self, activity: ActivityProfile,
                        voltage: float) -> float:
        """Activity-weighted dynamic density (W/Hz) at *voltage*."""
        return self.nominal_density(activity) * (voltage / V_NOMINAL) ** 2

    def dynamic_power(self, frequency: float, voltage: float,
                      activity: ActivityProfile) -> float:
        """``P_d`` of the paper's equation, in watts."""
        self._check_point(frequency, voltage)
        return frequency * self.dynamic_density(activity, voltage)

    def leakage_power(self, voltage: float) -> float:
        """Leakage at *voltage* (interpolated from the anchored table)."""
        return self.table.leakage_at(voltage)

    def total_power(self, frequency: float, voltage: float,
                    activity: ActivityProfile) -> float:
        """Dynamic plus leakage power."""
        return self.dynamic_power(frequency, voltage, activity) \
            + self.leakage_power(voltage)

    # -- operating-point selection -------------------------------------------

    def power_at_frequency(self, frequency: float,
                           activity: ActivityProfile) -> float:
        """Total power running at *frequency* at the minimum voltage that
        sustains it (the FLL/divider pick the frequency, the regulator the
        voltage)."""
        return self._locus_power(frequency, self.nominal_density(activity))

    def _locus_power(self, frequency: float, nominal: float) -> float:
        """:meth:`power_at_frequency` given the activity's nominal density.

        The same operations as :meth:`total_power` at the locus voltage,
        so a bisection can sum the density once rather than per probe.
        """
        voltage = self.table.voltage_for(frequency)
        self._check_point(frequency, voltage)
        return frequency * (nominal * (voltage / V_NOMINAL) ** 2) \
            + self.leakage_power(voltage)

    def max_frequency_within(self, budget: float,
                             activity: ActivityProfile,
                             tolerance: float = 1e3) -> Tuple[float, float]:
        """Highest (frequency, voltage) whose total power fits *budget*.

        Returns ``(0.0, v_min)`` when even the minimum point exceeds the
        budget.  Power is monotonically increasing in frequency along the
        minimum-voltage locus, so a bisection suffices.
        """
        if budget <= 0:
            return 0.0, self.table.v_min
        nominal = self.nominal_density(activity)
        lo, hi = 0.0, self.table.f_max
        f_floor = min(mhz(1), hi)
        if self._locus_power(f_floor, nominal) > budget:
            return 0.0, self.table.v_min
        if self._locus_power(hi, nominal) <= budget:
            return hi, self.table.voltage_for(hi)
        lo = f_floor
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if self._locus_power(mid, nominal) <= budget:
                lo = mid
            else:
                hi = mid
        frequency = lo
        return frequency, self.table.voltage_for(frequency)

    def anchored_points(self):
        """The anchored (voltage, f_max, leakage) points of the table."""
        return self.table.points

    def _check_point(self, frequency: float, voltage: float) -> None:
        if frequency < 0:
            raise OperatingPointError(f"negative frequency {frequency}")
        fmax = self.table.fmax_at(voltage)
        if frequency > fmax * (1 + 1e-6):
            raise OperatingPointError(
                f"{frequency:.3e} Hz exceeds f_max {fmax:.3e} Hz at {voltage} V")
