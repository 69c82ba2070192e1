"""Tests for the offload cost model and the power-envelope solver."""

import random

import pytest

from repro.errors import BudgetError, OffloadError
from repro.core import pricing
from repro.core.envelope import (
    DEFAULT_BUDGET,
    FIGURE5A_HOST_FREQUENCIES,
    PowerEnvelopeSolver,
)
from repro.core.offload import OffloadCostModel
from repro.core.system import HeterogeneousSystem
from repro.experiments.figure5 import FIGURE5B_HOST_FREQUENCIES
from repro.kernels import all_kernels
from repro.obs import Telemetry, use_telemetry
from repro.power.activity import ActivityProfile
from repro.units import mhz, mw


@pytest.fixture
def cost_model():
    return OffloadCostModel()


@pytest.fixture
def activity():
    return ActivityProfile.matmul()


def _timing(cost_model, activity, **overrides):
    defaults = dict(
        binary_bytes=12000, input_bytes=8192, output_bytes=4096,
        compute_cycles=250e3, pulp_frequency=mhz(150), pulp_voltage=0.65,
        activity=activity, host_frequency=mhz(8), iterations=1,
    )
    defaults.update(overrides)
    return cost_model.offload_timing(**defaults)


class TestTransferCost:
    def test_zero_payload_free(self, cost_model):
        cost = cost_model.transfer_cost(0, mhz(8), 1e-3)
        assert cost.time == 0 and cost.energy == 0

    def test_time_scales_inverse_with_host_clock(self, cost_model):
        slow = cost_model.transfer_cost(4096, mhz(4), 1e-3)
        fast = cost_model.transfer_cost(4096, mhz(16), 1e-3)
        assert slow.time == pytest.approx(4 * fast.time, rel=0.05)

    def test_energy_includes_all_parties(self, cost_model):
        cost = cost_model.transfer_cost(4096, mhz(8), 1e-3)
        # At least the PULP idle burn over the duration.
        assert cost.energy > cost.time * 1e-3


class TestOffloadTiming:
    def test_efficiency_grows_with_iterations(self, cost_model, activity):
        efficiencies = [
            _timing(cost_model, activity, iterations=n).efficiency
            for n in (1, 4, 16, 64)]
        assert efficiencies == sorted(efficiencies)

    def test_efficiency_bounded(self, cost_model, activity):
        timing = _timing(cost_model, activity, iterations=256)
        assert 0 < timing.efficiency < 1

    def test_double_buffering_helps_at_scale(self, cost_model, activity):
        serial = _timing(cost_model, activity, iterations=64)
        overlapped = _timing(cost_model, activity, iterations=64,
                             double_buffered=True)
        assert overlapped.total_time < serial.total_time
        assert overlapped.efficiency > serial.efficiency

    def test_double_buffer_period_is_max_of_pipelines(self, cost_model,
                                                      activity):
        timing = _timing(cost_model, activity, iterations=100,
                         double_buffered=True)
        transfer = timing.input_time + timing.output_time
        period = max(timing.compute_time + timing.sync_time, transfer)
        expected = timing.binary_time + timing.boot_time \
            + timing.input_time + 100 * period + timing.output_time
        assert timing.total_time == pytest.approx(expected)

    def test_serial_total_decomposition(self, cost_model, activity):
        timing = _timing(cost_model, activity, iterations=10)
        per_iteration = (timing.input_time + timing.compute_time
                         + timing.sync_time + timing.output_time)
        assert timing.total_time == pytest.approx(
            timing.binary_time + timing.boot_time + 10 * per_iteration)

    def test_boot_charged_only_with_binary(self, cost_model, activity):
        fresh = _timing(cost_model, activity)
        resident = _timing(cost_model, activity, include_binary=False)
        assert fresh.boot_time > 0
        assert resident.boot_time == 0
        assert "boot" in fresh.energy.energy_by_label()

    def test_binary_skippable_when_resident(self, cost_model, activity):
        with_binary = _timing(cost_model, activity)
        without = _timing(cost_model, activity, include_binary=False)
        assert without.binary_time == 0
        assert without.total_time < with_binary.total_time

    def test_energy_phases_present(self, cost_model, activity):
        timing = _timing(cost_model, activity, iterations=4)
        labels = set(timing.energy.energy_by_label())
        assert {"binary", "input", "output", "compute", "sync"} <= labels

    def test_average_power_below_budget_while_computing(self, cost_model,
                                                        activity):
        timing = _timing(cost_model, activity, iterations=64,
                         pulp_frequency=mhz(150), pulp_voltage=0.65)
        assert timing.average_power < mw(12)

    def test_invalid_iterations(self, cost_model, activity):
        with pytest.raises(OffloadError):
            _timing(cost_model, activity, iterations=0)

    def test_invalid_compute(self, cost_model, activity):
        with pytest.raises(OffloadError):
            _timing(cost_model, activity, compute_cycles=0)


def _offload_points():
    """Keyword arguments of every kernel's offload at each of Figure
    5b's host clocks, both schedules, binary included or not."""
    system = HeterogeneousSystem()
    points = []
    for kernel in all_kernels():
        characterization = pricing.characterize(system, kernel)
        for host_frequency in FIGURE5B_HOST_FREQUENCIES:
            point = pricing.operating_point(
                system.envelope, host_frequency, characterization.activity)
            for double_buffered in (False, True):
                for include_binary in (True, False):
                    points.append(dict(
                        binary_bytes=characterization.binary_bytes,
                        input_bytes=characterization.input_bytes,
                        output_bytes=characterization.output_bytes,
                        compute_cycles=characterization.execution.wall_cycles,
                        pulp_frequency=point.pulp_frequency,
                        pulp_voltage=point.pulp_voltage,
                        activity=characterization.activity,
                        host_frequency=host_frequency,
                        double_buffered=double_buffered,
                        include_binary=include_binary))
    return system, points


class TestPhaseCache:
    """A cost model keeps the last point's phases; a warm model prices
    every offload exactly as a fresh one does."""

    def _assert_warm_equals_fresh(self, seed, iteration_counts, spans):
        system, points = _offload_points()
        rng = random.Random(seed)
        rng.shuffle(points)
        warm = OffloadCostModel(system.host, system.link,
                                system.soc.power_model)
        warm_hub, fresh_hub = Telemetry(enabled=spans), \
            Telemetry(enabled=spans)
        # Four iteration counts per point, every count at least once.
        counts = iteration_counts * -(-4 * len(points)
                                      // len(iteration_counts))
        rng.shuffle(counts)
        calls = 0
        for index, point in enumerate(points):
            for iterations in counts[4 * index:4 * index + 4]:
                with use_telemetry(warm_hub):
                    timing = warm.offload_timing(iterations=iterations,
                                                 **point)
                with use_telemetry(fresh_hub):
                    expected = OffloadCostModel(
                        system.host, system.link,
                        system.soc.power_model).offload_timing(
                            iterations=iterations, **point)
                assert repr(timing) == repr(expected), (point, iterations)
                assert [repr(phase) for phase in timing.energy.phases] \
                    == [repr(phase) for phase in expected.energy.phases]
                calls += 1
        assert calls == 4 * 10 * len(FIGURE5B_HOST_FREQUENCIES) * 4
        assert repr(warm_hub.spans) == repr(fresh_hub.spans)
        assert repr(warm_hub.counters) == repr(fresh_hub.counters)

    def test_warm_model_equals_fresh_model(self):
        self._assert_warm_equals_fresh(40, list(range(1, 257)), False)

    def test_warm_model_equals_fresh_model_under_telemetry(self):
        self._assert_warm_equals_fresh(41, [1, 2, 3, 4, 7, 16], True)

    def test_an_iteration_sweep_costs_its_phases_once(self, monkeypatch,
                                                      cost_model, activity):
        phases = []
        cost = OffloadCostModel._cost_phases

        def counted(self, *args):
            phases.append(args)
            return cost(self, *args)

        monkeypatch.setattr(OffloadCostModel, "_cost_phases", counted)
        for double_buffered in (False, True):
            for iterations in (1, 2, 4, 8, 16, 32, 64, 128, 256):
                _timing(cost_model, activity, iterations=iterations,
                        double_buffered=double_buffered)
        assert len(phases) == 2
        # An enabled hub sees the link count every transfer.
        with use_telemetry(Telemetry(enabled=True)):
            _timing(cost_model, activity, double_buffered=True)
        assert len(phases) == 3

    def test_keeps_one_point(self, cost_model, activity):
        attributes = set(vars(cost_model))
        for cycles in range(1, 400):
            _timing(cost_model, activity, compute_cycles=1e3 * cycles)
        assert set(vars(cost_model)) == attributes
        assert cost_model._point[3] == 399e3


class TestPowerEnvelopeSolver:
    def test_baseline_32mhz_leaves_no_room(self):
        solver = PowerEnvelopeSolver()
        point = solver.solve(mhz(32), ActivityProfile.matmul())
        assert not point.accelerator_usable

    def test_lower_host_clock_frees_accelerator_power(self):
        solver = PowerEnvelopeSolver()
        activity = ActivityProfile.matmul()
        frequencies = [solver.solve(f, activity).pulp_frequency
                       for f in (mhz(26), mhz(16), mhz(8), mhz(2))]
        assert frequencies == sorted(frequencies)
        assert frequencies[-1] > mhz(180)

    def test_total_power_within_budget(self):
        solver = PowerEnvelopeSolver()
        for f in (mhz(1), mhz(8), mhz(16), mhz(26)):
            point = solver.solve(f, ActivityProfile.matmul())
            assert point.total_power <= DEFAULT_BUDGET * (1 + 1e-6)

    def test_sweep_covers_paper_frequencies(self):
        solver = PowerEnvelopeSolver()
        points = solver.sweep(ActivityProfile.matmul())
        assert len(points) == len(FIGURE5A_HOST_FREQUENCIES)

    def test_host_only_power(self):
        solver = PowerEnvelopeSolver()
        assert solver.host_only_power(mhz(32)) == pytest.approx(mw(10),
                                                                rel=0.05)

    def test_custom_budget(self):
        generous = PowerEnvelopeSolver(budget=mw(50))
        point = generous.solve(mhz(32), ActivityProfile.matmul())
        assert point.accelerator_usable
        assert point.pulp_frequency > mhz(300)

    def test_invalid_budget(self):
        with pytest.raises(BudgetError):
            PowerEnvelopeSolver(budget=0)
