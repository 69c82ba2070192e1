"""Tests for the power models: interpolation, operating points, the
paper's activity-weighted equation, and energy accounting."""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
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
from repro.experiments import sensitivity
from repro.power.activity import StateFractions
from repro.power.interpolation import (
    _horner_error_bound,
    _linspace,
    _slope_floor,
    bisection_cell,
)
from repro.power import pulp_model
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

    def test_nan_budget_returns_zero(self):
        for model in (PulpPowerModel(), _BisectingModel()):
            assert model.max_frequency_within(
                math.nan, ActivityProfile.matmul()) == (0.0, PULP3_TABLE.v_min)

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


# -- the certified fast paths against their bisection twins --------------------


def _inverse_targets(interp, seed, uniform, ties):
    """Targets inside the invertible range: uniform draws, both range
    ends (and just inside them), grid values of the bisection (ties) and
    their float neighbours."""
    rng = random.Random(seed)
    lo, hi = interp(interp.x_min), interp(interp.x_max)
    targets = [lo, hi, math.nextafter(lo, hi), math.nextafter(hi, lo)]
    targets += [rng.uniform(lo, hi) for _ in range(uniform)]
    cell = (interp.x_max - interp.x_min) / 2 ** 29
    for _ in range(ties):
        value = interp(interp.x_min + rng.randrange(1, 2 ** 29) * cell)
        targets += [value, math.nextafter(value, -math.inf),
                    math.nextafter(value, math.inf)]
    return [min(max(y, lo), hi) for y in targets]


def _shifted_interpolator():
    """PULP3's f_max fit over 0.6-1.0 V: a range whose bisection
    midpoints round, so it cannot be certified."""
    points = PULP3_TABLE.points[1:]
    return PolynomialInterpolator([p.voltage for p in points],
                                  [p.fmax for p in points], len(points) - 1)


class TestCertifiedInverse:
    def test_pulp_table_is_certified_on_the_bisection_grid(self):
        certificate = PULP3_TABLE._fmax.certify()
        assert certificate is not None
        assert certificate.cell == 2.0 ** -30
        assert certificate.last == 2 ** 29 - 1

    def test_equals_bisection_on_20000_targets(self):
        interp = PULP3_TABLE._fmax
        targets = _inverse_targets(interp, seed=15, uniform=11_000,
                                   ties=3_000)
        assert len(targets) >= 20_000
        mismatches = [y for y in targets
                      if interp.inverse(y) != interp.bisect(y)]
        assert mismatches == []

    def test_equals_polyval_reference(self):
        interp = PULP3_TABLE._fmax
        for y in _inverse_targets(interp, seed=16, uniform=300, ties=100):
            assert interp.inverse(y) == _ref_inverse(interp, y), y

    def test_answers_without_the_bisection(self, monkeypatch):
        interp = OperatingPointTable(PULP3_TABLE.points)._fmax
        reference = interp.bisect
        fallbacks = []

        def counted(y, tolerance=1e-9):
            fallbacks.append(y)
            return reference(y, tolerance)

        monkeypatch.setattr(interp, "bisect", counted)
        rng = random.Random(17)
        lo, hi = interp(interp.x_min), interp(interp.x_max)
        for _ in range(5_000):
            interp.inverse(rng.uniform(lo, hi))
        assert len(fallbacks) <= 50

    def test_uncertified_fits_fall_back_to_the_bisection(self):
        shifted = _shifted_interpolator()
        # f = x**3 has no slope at 0: Horner cannot be shown increasing.
        cubic = PolynomialInterpolator([0.0, 0.25, 0.5, 1.0],
                                       [0.0, 1 / 64, 1 / 8, 1.0], degree=3)
        for interp in (shifted, cubic):
            assert interp.certify() is None
            for y in _inverse_targets(interp, seed=18, uniform=1_500,
                                      ties=200):
                assert interp.inverse(y) == interp.bisect(y), y

    def test_other_tolerances_keep_the_bisection_result(self):
        interp = OperatingPointTable(PULP3_TABLE.points)._fmax
        for tolerance in (1e-3, 1e-6, 2.0 ** -40, 0.0):
            for y in _inverse_targets(interp, seed=19, uniform=200, ties=0):
                assert interp.inverse(y, tolerance) \
                    == interp.bisect(y, tolerance), (tolerance, y)
        assert interp.certify(0.0) is None


# -- numpy twins of the fit's pure-Python checks -------------------------------
#
# The interpolator probes, bounds and certifies its fit in pure Python in
# numpy's operation order, and takes PULP3's coefficients from a stored
# fit.  These are the numpy formulations it replaced; every value must
# match them by repr (bit for bit, signed zeros included).


def _np_probe(coefficients, x_min, x_max):
    return np.polyval(coefficients, np.linspace(x_min, x_max, 256))


def _np_monotone(coefficients, x_min, x_max):
    return not np.any(np.diff(_np_probe(coefficients, x_min, x_max)) <= 0)


def _np_slope_floor(coefficients, lo, hi, cells=256):
    radius = max(abs(lo), abs(hi))
    width = (hi - lo) / cells
    starts = lo + width * np.arange(cells + 1)
    derivative = np.polyder(coefficients)
    floor = np.polyval(derivative, starts) \
        - _horner_error_bound(derivative, radius)
    for order in range(1, len(coefficients) - 1):
        derivative = np.polyder(derivative)
        value = np.abs(np.polyval(derivative, starts)) \
            + _horner_error_bound(derivative, radius)
        floor = floor - value * width ** order / math.factorial(order)
    return float(floor.min())


def _np_certificate(interp, tolerance):
    width, halvings = interp.x_max - interp.x_min, 0
    while halvings < 200:
        width *= 0.5
        halvings += 1
        if width < tolerance:
            break
    cell = bisection_cell(interp.x_min, interp.x_max, halvings)
    if cell is None:
        return None
    coefficients = np.array(interp.coefficients)
    radius = max(abs(interp.x_min), abs(interp.x_max))
    floor = _np_slope_floor(coefficients, interp.x_min, interp.x_max)
    if not floor * cell > 4 * _horner_error_bound(coefficients, radius):
        return None
    cells = min(256, 2 ** halvings)
    width = (interp.x_max - interp.x_min) / cells
    starts = interp.x_min + width * np.arange(cells + 1)
    bend = float(np.abs(np.polyval(np.polyder(coefficients, 2),
                                   starts)).max())
    return (cell, 2 ** halvings - 1, tuple(starts.tolist()), width,
            tuple(np.polyval(coefficients, starts).tolist()),
            tuple(float(c) for c in np.polyder(coefficients)),
            math.sqrt(cell * floor / (8 * bend)) if bend else cell)


def _random_monotone_anchors(rng):
    """Increasing anchors on a dyadic-friendly voltage grid, so many of
    their fits can be certified.  Rises vary by up to *jag* of the mean
    rise: smooth sets fit monotonically, jagged ones may overshoot."""
    count = rng.randint(3, 7)
    start, step = rng.randint(2, 8) / 8, rng.choice([1 / 16, 1 / 8, 0.1])
    rise, jag = rng.uniform(2e7, 1e8), rng.choice([0.05, 0.9])
    xs = [start + i * step for i in range(count)]
    ys = [5e7]
    for _ in range(count - 1):
        ys.append(ys[-1] + rise * rng.uniform(1 - jag, 1 + jag))
    degree = rng.choice([count - 1, rng.randint(1, count - 1)])
    return xs, ys, degree


def _assert_matches_numpy(interp):
    """Monotonicity probe, slope floor and certificates at three
    tolerances against the numpy twins; returns how many of the three
    tolerances were certified."""
    probe = _linspace(interp.x_min, interp.x_max, 256)
    assert [repr(interp(x)) for x in probe] == [
        repr(v) for v in _np_probe(interp.coefficients, interp.x_min,
                                   interp.x_max).tolist()]
    assert repr(_slope_floor(interp.coefficients, interp.x_min,
                             interp.x_max)) \
        == repr(_np_slope_floor(interp.coefficients, interp.x_min,
                                interp.x_max))
    certified = 0
    for tolerance in (1e-9, 1e-6, 1e-3):
        certificate = interp.certify(tolerance)
        twin = _np_certificate(interp, tolerance)
        assert (certificate is None) == (twin is None)
        if certificate is not None:
            certified += 1
            for name, value, expected in zip(certificate._fields,
                                             certificate, twin):
                assert repr(value) == repr(expected), name
    return certified


class TestNumpyFreeFit:
    def test_stored_pulp3_fit_is_polyfit_bit_for_bit(self):
        points = PULP3_TABLE.points
        fitted = np.polyfit([p.voltage for p in points],
                            [p.fmax for p in points], len(points) - 1)
        assert PULP3_TABLE._fmax.coefficients \
            == tuple(float(c) for c in fitted)
        assert [repr(c) for c in PULP3_TABLE._fmax.coefficients] \
            == [repr(float(c)) for c in fitted]

    def test_building_pulp3_table_loads_no_numpy(self):
        probe = ("import sys\n"
                 "from repro.power.pulp_model import PULP3_TABLE\n"
                 "PULP3_TABLE._fmax.certify()\n"
                 "PULP3_TABLE.voltage_for(2e8)\n"
                 "print(sorted(n for n in sys.modules\n"
                 "             if n.split('.')[0] == 'numpy'))\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert loaded.stdout.strip() == "[]"

    def test_only_unknown_anchors_are_fitted_by_polyfit(self, monkeypatch):
        fits = []
        polyfit = np.polyfit

        def counted(xs, ys, degree):
            fits.append(degree)
            return polyfit(xs, ys, degree)

        monkeypatch.setattr(np, "polyfit", counted)
        OperatingPointTable(PULP3_TABLE.points)
        assert fits == []
        points = PULP3_TABLE.points[1:]
        shifted = _shifted_interpolator()
        assert fits == [len(points) - 1]
        assert shifted.coefficients == tuple(float(c) for c in polyfit(
            [p.voltage for p in points], [p.fmax for p in points],
            len(points) - 1))

    def test_pulp3_and_sensitivity_tables_match_numpy(self):
        tables = [PULP3_TABLE] + [sensitivity._scaled_leakage(factor)
                                  for factor in (0.8, 1.0, 1.25)]
        for table in tables:
            interp = table._fmax
            assert _np_monotone(interp.coefficients, interp.x_min,
                                interp.x_max)
            assert _assert_matches_numpy(interp) == 3

    def test_random_monotone_anchor_sets_match_numpy(self):
        rng = random.Random(2016)
        accepted = rejected = certified = 0
        while accepted < 120:
            xs, ys, degree = _random_monotone_anchors(rng)
            assert [repr(x) for x in _linspace(xs[0], xs[-1], 256)] \
                == [repr(x) for x in np.linspace(xs[0], xs[-1], 256).tolist()]
            fitted = np.polyfit(xs, ys, degree)
            monotone = _np_monotone(fitted, xs[0], xs[-1])
            try:
                interp = PolynomialInterpolator(xs, ys, degree)
            except OperatingPointError:
                assert not monotone, (xs, ys, degree)
                rejected += 1
                continue
            assert monotone, (xs, ys, degree)
            assert [repr(c) for c in interp.coefficients] \
                == [repr(float(c)) for c in fitted]
            certified += _assert_matches_numpy(interp)
            accepted += 1
        # The draw exercises both outcomes of each check.
        assert rejected > 10 and certified > 100, (rejected, certified)


class _BisectingModel(PulpPowerModel):
    """The reference twin: every frequency search bisects."""

    def _search_frequency(self, *args):
        return None


def _budget_pairs(model, seed, per_activity):
    """(budget, activity) pairs: uniform budgets from below the leakage
    floor to above f_max's power, plus the locus power at grid
    frequencies of the bisection (ties) and their float neighbours."""
    rng = random.Random(seed)
    lo, hi = mhz(1), model.table.f_max
    cell = (hi - lo) / 2 ** 19
    activities = _profiles() + [
        pricing.characterize(HeterogeneousSystem(threads=threads),
                             kernel).activity
        for kernel in all_kernels() for threads in (1, 2)]
    pairs = []
    for activity in activities:
        for _ in range(per_activity):
            pairs.append((mw(rng.uniform(0.3, 16.0)), activity))
        for _ in range(per_activity // 2):
            power = model.power_at_frequency(
                lo + rng.randrange(0, 2 ** 19 + 1) * cell, activity)
            pairs += [(power, activity),
                      (math.nextafter(power, 0.0), activity),
                      (math.nextafter(power, 1.0), activity)]
    return pairs


class TestFrequencySearch:
    def test_equals_bisection_on_2000_pairs(self):
        model, reference = PulpPowerModel(), _BisectingModel()
        pairs = _budget_pairs(model, seed=20, per_activity=26)
        assert len(pairs) >= 2_000
        for budget, activity in pairs:
            assert model.max_frequency_within(budget, activity) \
                == reference.max_frequency_within(budget, activity), \
                (budget, activity.name)

    def test_equals_polyval_reference(self):
        model = PulpPowerModel()
        for budget, activity in _budget_pairs(model, seed=21,
                                              per_activity=2)[::3]:
            assert model.max_frequency_within(budget, activity) \
                == _ref_max_frequency_within(model, budget, activity), \
                (budget, activity.name)

    def test_answers_without_the_bisection(self, monkeypatch):
        model = PulpPowerModel()
        fallbacks = []
        reference = model._bisect_frequency

        def counted(*args):
            fallbacks.append(args)
            return reference(*args)

        monkeypatch.setattr(model, "_bisect_frequency", counted)
        for budget, activity in _budget_pairs(model, seed=22,
                                              per_activity=6):
            model.max_frequency_within(budget, activity)
        assert fallbacks == []

    def test_uncertified_searches_fall_back_to_the_bisection(self):
        model, reference = PulpPowerModel(), _BisectingModel()
        pairs = _budget_pairs(model, seed=23, per_activity=2)
        # A grid too fine to stay exact below 2**52 quanta.
        assert model._frequency_grid(mhz(1), model.table.f_max, 0.5) is None
        for budget, activity in pairs[::4]:
            assert model.max_frequency_within(budget, activity, 0.5) \
                == reference.max_frequency_within(budget, activity, 0.5)
        # A leakage bump at 0.6 V voids the monotonicity argument: the
        # locus power of an idle cluster rises, falls and rises again.
        bumped = OperatingPointTable([
            OperatingPoint(p.voltage, p.fmax, mw(leakage))
            for p, leakage in zip(PULP3_TABLE.points,
                                  (1.0, 3.0, 1.0, 1.0, 2.0, 3.5))])
        model, reference = PulpPowerModel(bumped), _BisectingModel(bumped)
        assert model._locus_error(1e-11) == math.inf
        rng = random.Random(25)
        for _ in range(300):
            budget = mw(rng.uniform(1.0, 8.0))
            assert model.max_frequency_within(budget, ActivityProfile.idle()) \
                == reference.max_frequency_within(budget,
                                                  ActivityProfile.idle())

    def test_shared_evaluations_equal_bisection_in_any_order(self):
        # One model answers the pairs in three seeded shuffled orders:
        # each search starts from the points every earlier one kept,
        # grid-locus ties and their float neighbours included.
        model, reference = PulpPowerModel(), _BisectingModel()
        pairs = _budget_pairs(model, seed=27, per_activity=8)
        for seed in (30, 31, 32):
            random.Random(seed).shuffle(pairs)
            for budget, activity in pairs:
                assert model.max_frequency_within(budget, activity) \
                    == reference.max_frequency_within(budget, activity), \
                    (seed, budget, activity.name)

    def test_full_locus_caches_keep_the_answers(self):
        # Other budgets fill every activity's kept points to their cap
        # first; searches from a full cache still end on the same cell.
        model, reference = PulpPowerModel(), _BisectingModel()
        rng = random.Random(33)
        for activity in _profiles():
            for _ in range(200):
                model.max_frequency_within(mw(rng.uniform(0.3, 16.0)),
                                           activity)
        assert {len(locus.indices) for locus in model._loci.values()} \
            == {pulp_model._KEPT_POINTS}
        for budget, activity in _budget_pairs(model, seed=34,
                                              per_activity=6):
            assert model.max_frequency_within(budget, activity) \
                == reference.max_frequency_within(budget, activity), \
                (budget, activity.name)

    def test_a_repeated_search_evaluates_nothing(self, monkeypatch):
        model = PulpPowerModel()
        activity = ActivityProfile.matmul()
        first = model.max_frequency_within(mw(6.5), activity)
        evaluations = []
        locus_point = model._locus_point

        def counted(*args):
            evaluations.append(args)
            return locus_point(*args)

        monkeypatch.setattr(model, "_locus_point", counted)
        # Its bracket is kept: both ends of the answer's cell.
        assert model.max_frequency_within(mw(6.5), activity) == first
        assert evaluations == []
        model.max_frequency_within(mw(6.4), activity)
        assert 0 < len(evaluations) < 8

    def test_uncertified_searches_keep_no_points(self, monkeypatch):
        bumped = OperatingPointTable([
            OperatingPoint(p.voltage, p.fmax, mw(leakage))
            for p, leakage in zip(PULP3_TABLE.points,
                                  (1.0, 3.0, 1.0, 1.0, 2.0, 3.5))])
        bisections = []
        for model, tolerance in ((PulpPowerModel(), 0.5),
                                 (PulpPowerModel(bumped), 1e3)):
            reference = model._bisect_frequency

            def counted(*args, reference=reference):
                bisections.append(args)
                return reference(*args)

            monkeypatch.setattr(model, "_bisect_frequency", counted)
            for budget in (mw(2.5), mw(4.0), mw(7.5)):
                model.max_frequency_within(budget, ActivityProfile.idle(),
                                           tolerance)
            assert list(model._loci.values()) == [None]
        assert len(bisections) == 6

    def test_kept_activities_stop_at_their_cap(self):
        model = PulpPowerModel()
        activities = [ActivityProfile.compute(4, intensity / 200)
                      for intensity in range(pulp_model._KEPT_LOCI + 20)]
        for activity in activities:
            model.max_frequency_within(mw(6.0), activity)
        assert len(model._loci) == pulp_model._KEPT_LOCI
        # The oldest went first.
        kept = {nominal for nominal, *_ in model._loci}
        assert model.nominal_density(activities[0]) not in kept
        assert model.nominal_density(activities[-1]) in kept

    def test_envelope_solve_equals_bisection_on_2000_pairs(self):
        activities = _profiles()
        rng = random.Random(24)
        count = 0
        for budget_mw in [rng.uniform(3.0, 20.0) for _ in range(20)] \
                + [5.0, 6.5, 10.0]:
            solver = PowerEnvelopeSolver(budget=mw(budget_mw))
            twin = PowerEnvelopeSolver(budget=mw(budget_mw),
                                       pulp_power=_BisectingModel())
            for host_frequency in (mhz(1), mhz(4), mhz(8), mhz(16),
                                   mhz(26), mhz(32), mhz(48)):
                for activity in activities:
                    assert solver.solve(host_frequency, activity) \
                        == twin.solve(host_frequency, activity), \
                        (budget_mw, host_frequency, activity.name)
                    count += 1
        assert count >= 2_000

    def test_envelope_solve_at_grid_locus_budgets(self):
        # Budgets that leave a residual at (or an ulp from) the locus
        # power of one of the bisection's grid frequencies.
        model, twin_model = PulpPowerModel(), _BisectingModel()
        host = PowerEnvelopeSolver().host_device
        rng = random.Random(26)
        cell = (model.table.f_max - mhz(1)) / 2 ** 19
        for activity in _profiles():
            for _ in range(20):
                frequency = mhz(1) + rng.randrange(1, 2 ** 19) * cell
                host_frequency = rng.choice((mhz(2), mhz(8), mhz(16)))
                budget = model.power_at_frequency(frequency, activity) \
                    + host.active_power(host_frequency) + mw(0.05)
                solver = PowerEnvelopeSolver(budget=budget)
                twin = PowerEnvelopeSolver(budget=budget,
                                           pulp_power=twin_model)
                assert solver.solve(host_frequency, activity) \
                    == twin.solve(host_frequency, activity), \
                    (budget, activity.name)


class TestEnergyAccount:
    def test_totals_add_left_to_right(self):
        # A compensated sum() (CPython 3.12+) would give exactly 1.0.
        account = EnergyAccount()
        for _ in range(10):
            account.add("step", 0.1, 1.0)
        assert account.total_time == 0.9999999999999999
        assert account.total_energy == 0.9999999999999999

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
