"""Tests for the power models: interpolation, operating points, the
paper's activity-weighted equation, and energy accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import pricing
from repro.core.envelope import (
    FIGURE5A_HOST_FREQUENCIES,
    EnvelopePoint,
    PowerEnvelopeSolver,
)
from repro.core.system import HeterogeneousSystem
from repro.errors import OperatingPointError, PowerModelError
from repro.kernels import all_kernels
from repro.power import (
    ActivityProfile,
    EnergyAccount,
    OperatingPoint,
    OperatingPointTable,
    PolynomialInterpolator,
    PulpComponent,
    PulpPowerModel,
)
from repro.power.activity import StateFractions
from repro.power.pulp_model import PULP3_TABLE, V_NOMINAL
from repro.units import mhz, mw


class TestPolynomialInterpolator:
    def test_passes_through_anchors(self):
        interp = PolynomialInterpolator([0, 1, 2, 3], [0, 1, 8, 27], degree=3)
        assert interp(2) == pytest.approx(8, rel=1e-6)

    def test_inverse(self):
        interp = PolynomialInterpolator([0, 1, 2, 3], [0, 2, 4, 6], degree=1)
        assert interp.inverse(3.0) == pytest.approx(1.5, abs=1e-6)

    def test_out_of_range_rejected(self):
        interp = PolynomialInterpolator([0, 1, 2], [0, 1, 2], degree=1)
        with pytest.raises(OperatingPointError):
            interp(5.0)
        with pytest.raises(OperatingPointError):
            interp.inverse(5.0)

    def test_non_monotonic_rejected(self):
        with pytest.raises(OperatingPointError):
            PolynomialInterpolator([0, 1, 2], [0, 2, 1], degree=2)

    def test_needs_enough_anchors(self):
        with pytest.raises(OperatingPointError):
            PolynomialInterpolator([0, 1], [0, 1], degree=2)

    @given(st.floats(0.5, 1.0))
    def test_inverse_roundtrip_on_pulp_table(self, voltage):
        f = PULP3_TABLE.fmax_at(voltage)
        assert PULP3_TABLE.voltage_for(f) == pytest.approx(voltage, abs=1e-4)


class TestOperatingPointTable:
    def test_fmax_at_anchors(self):
        assert PULP3_TABLE.fmax_at(0.5) == pytest.approx(mhz(46), rel=1e-3)
        assert PULP3_TABLE.fmax_at(1.0) == pytest.approx(mhz(450), rel=1e-3)

    def test_fmax_monotonic(self):
        values = [PULP3_TABLE.fmax_at(0.5 + 0.05 * i) for i in range(11)]
        assert values == sorted(values)

    def test_voltage_for_low_frequency_floors(self):
        assert PULP3_TABLE.voltage_for(mhz(1)) == PULP3_TABLE.v_min

    def test_voltage_for_too_fast_rejected(self):
        with pytest.raises(OperatingPointError):
            PULP3_TABLE.voltage_for(mhz(1000))

    def test_leakage_interpolation_monotonic(self):
        values = [PULP3_TABLE.leakage_at(0.5 + 0.1 * i) for i in range(6)]
        assert values == sorted(values)
        assert values[0] == pytest.approx(mw(0.55), rel=1e-6)

    def test_leakage_out_of_range(self):
        with pytest.raises(OperatingPointError):
            PULP3_TABLE.leakage_at(1.5)

    def test_invalid_point(self):
        with pytest.raises(OperatingPointError):
            OperatingPoint(voltage=-1, fmax=mhz(10), leakage=0)

    def test_needs_three_points(self):
        with pytest.raises(OperatingPointError):
            OperatingPointTable([OperatingPoint(0.5, mhz(10), mw(1)),
                                 OperatingPoint(0.6, mhz(20), mw(1))])


class TestActivityProfile:
    def test_state_fractions_sum_to_one(self):
        with pytest.raises(PowerModelError):
            StateFractions(idle=0.5, run=0.2, dma=0.0)

    def test_default_idle(self):
        profile = ActivityProfile.idle()
        chi = profile.chi(PulpComponent.CORE0)
        assert chi.idle == 1.0 and chi.run == 0.0

    def test_matmul_vector_runs_cores(self):
        profile = ActivityProfile.matmul()
        assert profile.chi(PulpComponent.CORE3).run == 1.0
        assert profile.chi(PulpComponent.DMA).dma == 0.0

    def test_dma_vector(self):
        profile = ActivityProfile.dma_transfer()
        assert profile.chi(PulpComponent.DMA).dma == 1.0
        assert profile.chi(PulpComponent.CORE0).idle == 1.0

    def test_compute_profile_partial_cores(self):
        profile = ActivityProfile.compute(cores_active=2, memory_intensity=0.5)
        assert profile.chi(PulpComponent.CORE1).run == 1.0
        assert profile.chi(PulpComponent.CORE2).idle == 1.0
        assert profile.chi(PulpComponent.TCDM).run == 0.5

    def test_compute_profile_with_dma_overlap(self):
        profile = ActivityProfile.compute(4, 0.3, dma_overlap=0.4)
        tcdm = profile.chi(PulpComponent.TCDM)
        assert tcdm.run == pytest.approx(0.3)
        assert tcdm.dma == pytest.approx(0.4)
        assert profile.chi(PulpComponent.DMA).dma == pytest.approx(0.4)

    def test_invalid_core_count(self):
        with pytest.raises(PowerModelError):
            ActivityProfile.compute(cores_active=5, memory_intensity=0.1)

    def test_hash_is_by_value(self):
        a = ActivityProfile.compute(4, 0.3, dma_overlap=0.1, name="k")
        b = ActivityProfile.compute(4, 0.3, dma_overlap=0.1, name="k")
        # Same fractions, inserted in another order: still equal.
        c = ActivityProfile("k", dict(reversed(list(a.fractions.items()))))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert hash(ActivityProfile.matmul()) == hash(ActivityProfile.matmul())

    def test_usable_as_dict_key(self):
        table = {ActivityProfile.matmul(): "matmul",
                 ActivityProfile.idle(): "idle"}
        assert table[ActivityProfile.matmul()] == "matmul"
        assert table[ActivityProfile("idle", {})] == "idle"
        assert ActivityProfile.compute(4, 0.5, name="other") not in table
        assert ActivityProfile.compute(4, 0.6) not in table


class TestPulpPowerModel:
    def test_paper_equation_structure(self):
        # P_d = f * sum(chi * rho): doubling f doubles dynamic power.
        model = PulpPowerModel()
        activity = ActivityProfile.matmul()
        p1 = model.dynamic_power(mhz(20), 0.5, activity)
        p2 = model.dynamic_power(mhz(40), 0.5, activity)
        assert p2 == pytest.approx(2 * p1)

    def test_voltage_scaling_quadratic(self):
        model = PulpPowerModel()
        activity = ActivityProfile.matmul()
        d_half = model.dynamic_density(activity, 0.5)
        d_full = model.dynamic_density(activity, 1.0)
        assert d_full == pytest.approx(4 * d_half)

    def test_idle_far_below_active(self):
        model = PulpPowerModel()
        idle = model.dynamic_density(ActivityProfile.idle(), 0.6)
        active = model.dynamic_density(ActivityProfile.matmul(), 0.6)
        assert idle < active / 4

    def test_figure3_power_anchor(self):
        # Peak-efficiency point: ~1.48 mW at 0.5 V / 46 MHz on matmul.
        model = PulpPowerModel()
        power = model.total_power(mhz(46), 0.5, ActivityProfile.matmul())
        assert power == pytest.approx(1.48e-3, rel=0.03)

    def test_envelope_anchor(self):
        # ~200 MHz must fit within ~9.3 mW (the Figure 5a requirement).
        model = PulpPowerModel()
        f, v = model.max_frequency_within(9.3e-3, ActivityProfile.matmul())
        assert f > mhz(190)
        assert 0.65 < v < 0.75

    def test_over_fmax_rejected(self):
        model = PulpPowerModel()
        with pytest.raises(OperatingPointError):
            model.total_power(mhz(100), 0.5, ActivityProfile.idle())

    def test_budget_below_minimum_returns_zero(self):
        model = PulpPowerModel()
        f, v = model.max_frequency_within(1e-5, ActivityProfile.matmul())
        assert f == 0.0

    def test_budget_above_maximum_returns_fmax(self):
        model = PulpPowerModel()
        f, v = model.max_frequency_within(1.0, ActivityProfile.matmul())
        assert f == pytest.approx(PULP3_TABLE.f_max)
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_power_monotonic_in_budget(self):
        model = PulpPowerModel()
        activity = ActivityProfile.matmul()
        frequencies = [model.max_frequency_within(b * 1e-3, activity)[0]
                       for b in (2, 4, 6, 8, 10)]
        assert frequencies == sorted(frequencies)

    def test_missing_density_rejected(self):
        with pytest.raises(PowerModelError):
            PulpPowerModel(densities={})


# -- np.polyval reference of the envelope solve --------------------------------
#
# The solver evaluates f_max(V) by Horner's rule in pure Python and sums
# an activity's density once per solve.  These references are the
# straightforward np.polyval formulation it replaced, with the density
# summed per probe; the fast path must match them bit for bit.


def _ref_eval(interp, x):
    return float(np.polyval(interp.coefficients,
                            min(max(x, interp.x_min), interp.x_max)))


def _ref_inverse(interp, y, tolerance=1e-9):
    lo, hi = interp.x_min, interp.x_max
    y = min(max(y, _ref_eval(interp, lo)), _ref_eval(interp, hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _ref_eval(interp, mid) < y:
            lo = mid
        else:
            hi = mid
        if hi - lo < tolerance:
            break
    return 0.5 * (lo + hi)


def _ref_voltage_for(table, frequency):
    if frequency <= table.f_min:
        return table.v_min
    return _ref_inverse(table._fmax, min(frequency, table.f_max))


def _ref_total_power(model, frequency, voltage, activity):
    scale = (voltage / V_NOMINAL) ** 2
    total = 0.0
    for component in PulpComponent:
        rho = model.densities[component]
        chi = activity.chi(component)
        total += chi.idle * rho.idle + chi.run * rho.run + chi.dma * rho.dma
    return frequency * (total * scale) + model.table.leakage_at(voltage)


def _ref_power_at(model, frequency, activity):
    voltage = _ref_voltage_for(model.table, frequency)
    return _ref_total_power(model, frequency, voltage, activity)


def _ref_max_frequency_within(model, budget, activity, tolerance=1e3):
    if budget <= 0:
        return 0.0, model.table.v_min
    hi = model.table.f_max
    lo = min(mhz(1), hi)
    if _ref_power_at(model, lo, activity) > budget:
        return 0.0, model.table.v_min
    if _ref_power_at(model, hi, activity) <= budget:
        return hi, _ref_voltage_for(model.table, hi)
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if _ref_power_at(model, mid, activity) <= budget:
            lo = mid
        else:
            hi = mid
    return lo, _ref_voltage_for(model.table, lo)


def _ref_solve(solver, host_frequency, activity):
    host_power = solver.host_device.active_power(host_frequency)
    residual = solver.budget - host_power - solver.link_reserve
    model = solver.pulp_power
    frequency, voltage, pulp_power = 0.0, model.table.v_min, 0.0
    if residual > 0:
        frequency, voltage = _ref_max_frequency_within(model, residual,
                                                       activity)
        if frequency > 0:
            pulp_power = _ref_total_power(model, frequency, voltage,
                                          activity)
    return EnvelopePoint(host_frequency, host_power, solver.link_reserve,
                         frequency, voltage, pulp_power)


def _profiles():
    """The paper's three input vectors plus every kernel's activity."""
    return [ActivityProfile.idle(), ActivityProfile.matmul(),
            ActivityProfile.dma_transfer()] + [
        pricing.characterize(HeterogeneousSystem(), kernel).activity
        for kernel in all_kernels()]


class TestFastSolveIsExact:
    def test_horner_matches_polyval_bit_for_bit(self):
        interp = PULP3_TABLE._fmax
        voltages = [float(v) for v in np.linspace(0.5, 1.0, 50_001)]
        voltages += [point.voltage for point in PULP3_TABLE.points]
        mismatches = [v for v in voltages if interp(v)
                      != float(np.polyval(interp.coefficients, v))]
        assert mismatches == []

    def test_voltage_for_matches_reference(self):
        frequencies = [float(f) for f in np.linspace(mhz(0.5), mhz(450),
                                                     2_001)]
        frequencies += [point.fmax for point in PULP3_TABLE.points]
        for frequency in frequencies:
            assert PULP3_TABLE.voltage_for(frequency) \
                == _ref_voltage_for(PULP3_TABLE, frequency), frequency

    def test_max_frequency_within_matches_reference(self):
        model = PulpPowerModel()
        for activity in _profiles():
            for budget_mw in (0.0, 0.01, 1.0, 5.0, 6.5, 9.3, 10.0, 100.0):
                budget = mw(budget_mw)
                assert model.max_frequency_within(budget, activity) \
                    == _ref_max_frequency_within(model, budget, activity), \
                    (activity.name, budget_mw)

    def test_envelope_solve_matches_reference(self):
        profiles = _profiles()
        for budget_mw in (5.0, 6.5, 10.0):
            solver = PowerEnvelopeSolver(budget=mw(budget_mw))
            for host_frequency in FIGURE5A_HOST_FREQUENCIES:
                for activity in profiles:
                    assert solver.solve(host_frequency, activity) \
                        == _ref_solve(solver, host_frequency, activity), \
                        (budget_mw, host_frequency, activity.name)


class TestEnergyAccount:
    def test_accumulation(self):
        account = EnergyAccount()
        account.add("compute", 2.0, 0.005)
        account.add("transfer", 1.0, 0.002)
        assert account.total_time == 3.0
        assert account.total_energy == pytest.approx(0.012)
        assert account.average_power == pytest.approx(0.004)

    def test_by_label(self):
        account = EnergyAccount()
        account.add("a", 1.0, 1.0)
        account.add("a", 1.0, 2.0)
        account.add("b", 1.0, 3.0)
        assert account.energy_by_label() == {"a": 3.0, "b": 3.0}
        assert account.time_by_label() == {"a": 2.0, "b": 1.0}

    def test_extend(self):
        first = EnergyAccount()
        first.add("x", 1.0, 1.0)
        second = EnergyAccount()
        second.add("y", 2.0, 1.0)
        first.extend(second)
        assert first.total_time == 3.0

    def test_empty(self):
        assert EnergyAccount().average_power == 0.0

    def test_negative_rejected(self):
        account = EnergyAccount()
        with pytest.raises(PowerModelError):
            account.add("x", -1.0, 1.0)
