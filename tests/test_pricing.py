"""Tests for the staged pricing pipeline's memo keys and its callers."""

import dataclasses
from collections import Counter

import pytest

from repro.core import pricing
from repro.core.dual_task import DualTaskModel, HostTask
from repro.core.envelope import PowerEnvelopeSolver
from repro.core.sensor import SensorPath, SensorPipeline
from repro.core.system import HeterogeneousSystem
from repro.experiments import report
from repro.faults import FaultPlan, ResilientDriver
from repro.kernels import BENCHMARK_NAMES, Kernel, kernel_by_name
from repro.mcu.stm32l476 import UntiedSpiHost
from repro.power.activity import ActivityProfile, PulpComponent
from repro.power.operating_point import OperatingPointTable
from repro.power.pulp_model import PULP3_TABLE, PulpPowerModel
from repro.runtime.omp import DeviceOpenMp
from repro.units import mhz, mw


@pytest.fixture(autouse=True)
def empty_memos():
    pricing.clear()
    yield
    pricing.clear()


def _solve(solver, host_mhz, activity):
    return pricing.operating_point(solver, mhz(host_mhz), activity)


def _count_builds(monkeypatch):
    """Log the kernel name of every ``build_program`` call, on every
    kernel class that defines one."""
    builds = []

    def counted(original):
        def build_program(self):
            builds.append(self.name)
            return original(self)
        return build_program

    pending = [Kernel]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "build_program" in vars(cls):
            monkeypatch.setattr(cls, "build_program",
                                counted(vars(cls)["build_program"]))
    return builds


class TestOperatingPointKey:
    def test_activities_differing_only_in_name_share_one_entry(self):
        solver = PowerEnvelopeSolver()
        first = _solve(solver, 8, ActivityProfile.compute(4, 0.5, name="a"))
        second = _solve(solver, 8, ActivityProfile.compute(4, 0.5, name="b"))
        assert second is first
        assert len(pricing._OPERATING_POINTS) == 1

    def test_explicit_idle_fractions_equal_missing_ones(self):
        solver = PowerEnvelopeSolver()
        implicit = ActivityProfile.matmul()
        explicit = ActivityProfile("explicit", {
            component: implicit.chi(component) for component in PulpComponent})
        assert explicit.fractions != implicit.fractions
        assert _solve(solver, 8, explicit) is _solve(solver, 8, implicit)

    @pytest.mark.parametrize("change", ["budget", "host_clock", "fractions",
                                        "power_model"])
    def test_each_input_of_the_solve_splits_the_entry(self, change):
        solver = PowerEnvelopeSolver()
        activity = ActivityProfile.compute(4, 0.5)
        host_mhz = 8
        _solve(solver, host_mhz, activity)
        if change == "budget":
            solver = PowerEnvelopeSolver(budget=mw(6.5))
        elif change == "host_clock":
            host_mhz = 16
        elif change == "fractions":
            activity = ActivityProfile.compute(4, 0.6)
        else:
            leakier = OperatingPointTable([
                dataclasses.replace(point, leakage=point.leakage * 1.1)
                for point in PULP3_TABLE.points])
            solver = PowerEnvelopeSolver(pulp_power=PulpPowerModel(leakier))
        point = _solve(solver, host_mhz, activity)
        assert len(pricing._OPERATING_POINTS) == 2
        assert point == solver.solve(mhz(host_mhz), activity)

    def test_shared_kernels_share_their_solves(self):
        system = HeterogeneousSystem()
        names = ("matmul (short)", "matmul (fixed)", "svm (linear)",
                 "svm (poly)", "cnn", "cnn (approx)")
        points = {pricing.operating_point(
            system.envelope, mhz(8),
            pricing.characterize(system, kernel_by_name(name)).activity)
            for name in names}
        assert len(points) == 1
        assert len(pricing._OPERATING_POINTS) == 1


class TestEnvelopeCallers:
    """The dual-task, sensor and resilient models solve the envelope
    through the shared operating-point stage."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        solve = PowerEnvelopeSolver.solve

        def counted_solve(self, host_frequency, activity):
            calls.append(host_frequency)
            return solve(self, host_frequency, activity)

        monkeypatch.setattr(PowerEnvelopeSolver, "solve", counted_solve)
        return calls

    def test_dual_task_solves_each_clock_once(self, solves):
        kernel = kernel_by_name("svm (linear)")
        task = HostTask("sampler", cycles_per_period=1000, period=0.01)
        first = DualTaskModel().evaluate(kernel, task)
        assert len(solves) == len(first) == 5
        assert DualTaskModel().evaluate(kernel, task) == first
        assert len(solves) == 5

    def test_sensor_pipeline_shares_its_solve(self, solves):
        kernel = kernel_by_name("cnn")
        path = SensorPath.DIRECT
        first = SensorPipeline().evaluate(kernel, path, host_frequency=mhz(4))
        assert SensorPipeline().evaluate(kernel, path,
                                         host_frequency=mhz(4)) == first
        assert solves == [mhz(4)]

    def test_resilient_offload_shares_the_staged_point(self, solves):
        kernel = kernel_by_name("matmul")
        staged = pricing.offload(HeterogeneousSystem(), kernel)
        result = ResilientDriver(FaultPlan.clean(), seed=1).offload(kernel)
        assert solves == [mhz(8)]
        assert result.envelope is staged.envelope


class TestPaperReproductionPricing:
    def test_report_prices_through_the_stages(self, monkeypatch):
        calls = {"solve": 0, "execute": 0}
        solve = PowerEnvelopeSolver.solve
        execute = DeviceOpenMp.execute

        def counted_solve(self, *args):
            calls["solve"] += 1
            return solve(self, *args)

        def counted_execute(self, *args):
            calls["execute"] += 1
            return execute(self, *args)

        monkeypatch.setattr(PowerEnvelopeSolver, "solve", counted_solve)
        monkeypatch.setattr(DeviceOpenMp, "execute", counted_execute)
        builds = _count_builds(monkeypatch)
        text = report.build_report()
        assert "**17/17 anchors reproduced.**" in text
        # Five distinct activity fractions x eight host clocks; Figure
        # 5b's host clocks are a subset.  Ten kernels x {1, 4} threads.
        assert calls == {"solve": 40, "execute": 20}
        # One program per kernel serves both thread counts and the
        # host baseline.
        assert Counter(builds) == Counter(BENCHMARK_NAMES)


class TestProgramMemo:
    def test_characterize_and_host_run_share_one_program(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        kernel = kernel_by_name("cnn")
        pricing.characterize(HeterogeneousSystem(threads=4), kernel)
        pricing.characterize(HeterogeneousSystem(threads=2), kernel)
        pricing.host_run(HeterogeneousSystem(), kernel)
        pricing.characterize(HeterogeneousSystem(threads=1),
                             kernel_by_name("cnn"))
        assert builds == ["cnn"]

    def test_clear_empties_the_program_memo(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        system = HeterogeneousSystem()
        kernel = kernel_by_name("matmul")
        pricing.characterize(system, kernel)
        assert builds == ["matmul"] and pricing._PROGRAMS
        pricing.clear()
        assert not pricing._PROGRAMS
        pricing.host_run(system, kernel)
        assert builds == ["matmul", "matmul"]

    @pytest.mark.parametrize("host", ["tied", "untied"])
    def test_host_run_equals_run_on_host(self, host):
        system = HeterogeneousSystem(
            host=UntiedSpiHost(serial_clock=mhz(48)) if host == "untied"
            else None)
        for name in BENCHMARK_NAMES:
            kernel = kernel_by_name(name)
            for frequency in (mhz(2), mhz(8), mhz(26)):
                assert pricing.host_run(system, kernel, frequency) \
                    == system.run_on_host(kernel, frequency), (name, frequency)
