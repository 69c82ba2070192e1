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

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import OperatingPointError, PowerModelError
from repro.power.activity import ActivityProfile, PulpComponent
from repro.power.interpolation import UNIT_ROUNDOFF, bisection_cell
from repro.power.operating_point import OperatingPoint, OperatingPointTable
from repro.units import mhz, mw, uw_per_mhz

#: Nominal voltage at which densities are specified.
V_NOMINAL = 1.0
#: Probes the regula-falsi frequency search makes before it gives way to
#: the bisection.
_SEARCH_STEPS = 40


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
        #: The densities in :class:`PulpComponent` order, the order of an
        #: activity's ``fractions_key``.
        self._rows = tuple(densities[component] for component in PulpComponent)
        #: Lazily certified frequency grids and leakage error bound.
        self._grids: Dict[Tuple[float, float, float],
                          Optional[Tuple[float, int]]] = {}
        self._leakage_error: Optional[float] = None

    def memo_key(self) -> Tuple:
        """Value identity of the model: every anchor and density it reads."""
        return (self.table.points, self.table.fmax_degree, self._rows)

    # -- the paper's equation -------------------------------------------------

    def nominal_density(self, activity: ActivityProfile) -> float:
        """Activity-weighted dynamic density (W/Hz) at ``V_NOMINAL``,
        summed over the components in :class:`PulpComponent` order."""
        total = 0.0
        for chi, rho in zip(activity.fractions_key, self._rows):
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
        minimum-voltage locus, so the answer is defined by a bisection
        (:meth:`_bisect_frequency`) between 1 MHz, which fits, and
        ``f_max``, which does not.

        Where the model certifies it, the same frequency is found with
        fewer power evaluations: a regula-falsi search (Illinois variant)
        over the bisection's own grid ``lo + j * cell``, kept bracketed
        by one grid point that fits and one that does not, until the two
        are adjacent.  The lower one is the bisection's answer, bit for
        bit, by this argument:

        * *The grid is exact.*  :func:`~repro.power.interpolation.bisection_cell`
          certifies that every midpoint the bisection forms is exact, so
          its probes are grid points and ``lo + j * cell`` computes them.
        * *Power is strictly increasing along the grid.*  The locus
          voltage ``V(f)`` is non-decreasing in f (``v_min`` up to the
          lowest anchor, then the inverse, whose bisection result never
          decreases as its target grows).  In exact arithmetic the locus
          power ``g = f * n * V**2 + L(V)``, with n the nominal density
          and L the log-linear leakage interpolation (non-decreasing when
          the anchored leakages are), therefore rises by at least
          ``cell * n * v_min**2`` from one grid point to the next.  The
          float evaluation differs from g by at most E: a few roundings
          of ``2**-53`` on the dynamic term and the final sum, the
          rounding of ``exp``/``log``/``pow`` (within an ulp) amplified
          by at most the size of the exponent's argument on the leakage,
          and the 1e-12 V segment slack of
          :meth:`~repro.power.operating_point.OperatingPointTable.leakage_at`
          times the steepest leakage slope (:meth:`_locus_error` adds
          these up with room to spare).  So a rise above 2 E makes the
          float power strictly increasing along the grid; the
          certificate asks for ``cell * n * v_min**2 > 4 E``.
        * *Then one cell is the answer.*  The test "power fits the
          budget" is true up to one grid point and false after it.  The
          bisection keeps one fitting and one failing grid point and ends
          when they are adjacent, which leaves exactly that pair; the
          search keeps the same kind of pair, so it ends on the same one.

        An uncertified model or activity, or a search that does not
        close within its step limit, uses the bisection.
        """
        if budget <= 0:
            return 0.0, self.table.v_min
        nominal = self.nominal_density(activity)
        hi = self.table.f_max
        lo = min(mhz(1), hi)
        power_lo = self._locus_power(lo, nominal)
        if power_lo > budget:
            return 0.0, self.table.v_min
        power_hi = self._locus_power(hi, nominal)
        if power_hi <= budget:
            return hi, self.table.voltage_for(hi)
        frequency = self._search_frequency(budget, nominal, lo, hi, power_lo,
                                           power_hi, tolerance)
        if frequency is None:
            frequency = self._bisect_frequency(budget, nominal, lo, hi,
                                               tolerance)
        return frequency, self.table.voltage_for(frequency)

    def _bisect_frequency(self, budget: float, nominal: float, lo: float,
                          hi: float, tolerance: float) -> float:
        """The reference search: bisect [lo, hi], where lo fits *budget*
        and hi does not, until the bracket is at most *tolerance* wide;
        the fitting end."""
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if self._locus_power(mid, nominal) <= budget:
                lo = mid
            else:
                hi = mid
        return lo

    def _search_frequency(self, budget: float, nominal: float, lo: float,
                          hi: float, power_lo: float, power_hi: float,
                          tolerance: float) -> Optional[float]:
        """:meth:`_bisect_frequency`'s answer by regula falsi on its grid
        (see :meth:`max_frequency_within`), or None if uncertified."""
        grid = self._frequency_grid(lo, hi, tolerance)
        if grid is None:
            return None
        cell, cells = grid
        v_min = self.table.v_min
        if not cell * nominal * v_min * v_min > 4 * self._locus_error(nominal):
            return None
        fits, fails = 0, cells
        over_fits, over_fails = power_lo - budget, power_hi - budget
        kept = 0
        for _ in range(_SEARCH_STEPS):
            if fails - fits == 1:
                return lo + fits * cell
            step = int((fails - fits) * (over_fits / (over_fits - over_fails)))
            j = min(max(fits + step, fits + 1), fails - 1)
            over = self._locus_power(lo + j * cell, nominal) - budget
            if over <= 0:
                fits, over_fits = j, over
                if kept < 0:
                    over_fails *= 0.5
                kept = -1
            else:
                fails, over_fails = j, over
                if kept > 0:
                    over_fits *= 0.5
                kept = 1
        return None

    def _frequency_grid(self, lo: float, hi: float,
                        tolerance: float) -> Optional[Tuple[float, int]]:
        """(cell, cells) of :meth:`_bisect_frequency`'s grid on [lo, hi]
        at *tolerance*, or None when its points are not all exact."""
        key = (lo, hi, tolerance)
        if key not in self._grids:
            cell = None
            if tolerance > 0:
                # The bisection's widths; exact whenever its grid is.
                width, halvings = hi - lo, 0
                while width > tolerance:
                    width *= 0.5
                    halvings += 1
                cell = bisection_cell(lo, hi, halvings)
            self._grids[key] = None if cell is None else (cell, 2 ** halvings)
        return self._grids[key]

    def _locus_error(self, nominal: float) -> float:
        """Bound E on |float locus power - exact locus power| (see
        :meth:`max_frequency_within`); infinite when a leakage anchor is
        below the one before it, which voids the argument."""
        if self._leakage_error is None:
            pairs = list(zip(self.table.points, self.table.points[1:]))
            self._leakage_error = math.inf
            if all(low.leakage <= high.leakage for low, high in pairs):
                logs = [abs(math.log(p.leakage)) for p in self.table.points]
                leakage = self.table.points[-1].leakage
                steepest = max(
                    high.leakage * math.log(high.leakage / low.leakage)
                    / (high.voltage - low.voltage) for low, high in pairs)
                self._leakage_error = \
                    64 * UNIT_ROUNDOFF * (2 + max(logs)) * leakage \
                    + 1e-12 * steepest
        table = self.table
        dynamic = table.f_max * nominal * table.v_max * table.v_max
        return 9 * UNIT_ROUNDOFF * dynamic + self._leakage_error

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
