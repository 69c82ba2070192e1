"""Tests for the staged pricing pipeline's memo keys and its callers."""

import dataclasses
from collections import Counter

import pytest

from repro.core import pricing
from repro.core.dual_task import DualTaskModel, HostTask
from repro.core.envelope import PowerEnvelopeSolver
from repro.core.offload import OffloadCostModel
from repro.core.sensor import SensorPath, SensorPipeline
from repro.core.system import HeterogeneousSystem
from repro.dse import ExplorationEngine, ParameterSpace
from repro.experiments import report
from repro.faults import FaultPlan, ResilientDriver
from repro.isa import BaselineRiscTarget, Target
from repro.isa.costs import or10n_costs
from repro.isa.or10n import Or10nTarget
from repro.kernels import BENCHMARK_NAMES, Kernel, MatmulKernel, kernel_by_name
from repro.mcu.catalog import mcu_by_name
from repro.mcu.stm32l476 import UntiedSpiHost
from repro.power.activity import ActivityProfile, PulpComponent
from repro.power.operating_point import OperatingPointTable
from repro.power.pulp_model import PULP3_TABLE, PulpPowerModel
from repro.runtime.omp import DeviceOpenMp
from repro.units import mhz, mw
from tests.profiling import python_calls


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


def _baseline_lowerings(monkeypatch):
    """The program names ``Target.lower`` lowers on the baseline RISC
    target, and its ``lower_nodes`` walks (one per ``lower`` call)."""
    names, walks = [], []
    lower, lower_nodes = Target.lower, Target.lower_nodes

    def counted_lower(self, program):
        if self.name == "baseline-risc":
            names.append(program.name)
        return lower(self, program)

    def counted_lower_nodes(self, nodes):
        if self.name == "baseline-risc":
            walks.append(len(nodes))
        return lower_nodes(self, nodes)

    monkeypatch.setattr(Target, "lower", counted_lower)
    monkeypatch.setattr(Target, "lower_nodes", counted_lower_nodes)
    return names, walks


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

    @pytest.mark.parametrize("change", ["budget", "link_reserve",
                                        "host_device", "host_clock",
                                        "fractions", "power_model"])
    def test_each_input_of_the_solve_splits_the_entry(self, change):
        solver = PowerEnvelopeSolver()
        activity = ActivityProfile.compute(4, 0.5)
        host_mhz = 8
        _solve(solver, host_mhz, activity)
        if change == "budget":
            solver = PowerEnvelopeSolver(budget=mw(6.5))
        elif change == "link_reserve":
            solver = PowerEnvelopeSolver(link_reserve=mw(0.2))
        elif change == "host_device":
            solver = PowerEnvelopeSolver(host_device=dataclasses.replace(
                solver.host_device, base_power=mw(0.2)))
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

    def test_equal_inputs_built_apart_share_one_entry(self):
        first = _solve(PowerEnvelopeSolver(), 8, ActivityProfile.compute(4, 0.5))
        twin_device = dataclasses.replace(mcu_by_name("STM32-L476"))
        twin_model = PulpPowerModel(OperatingPointTable(PULP3_TABLE.points))
        solver = PowerEnvelopeSolver(host_device=twin_device,
                                     pulp_power=twin_model)
        assert _solve(solver, 8, ActivityProfile.compute(4, 0.5)) is first
        assert len(pricing._OPERATING_POINTS) == 1

    def test_keys_are_flat_tuples_of_numbers(self):
        model = PulpPowerModel()
        points, degree, densities = model.memo_key
        assert len(points) == 3 * len(PULP3_TABLE.points) and degree == 5
        assert len(densities) == 3 * len(PulpComponent)
        assert all(type(value) is float for value in points + densities)
        activity = ActivityProfile.matmul()
        assert activity.fractions_key == tuple(
            value for component in PulpComponent
            for value in dataclasses.astuple(activity.chi(component)))
        device = mcu_by_name("STM32-L476")
        assert device.memo_key == tuple(
            getattr(device, field.name)
            for field in dataclasses.fields(device))

    def test_warm_lookup_calls_no_python_function(self):
        solver = PowerEnvelopeSolver()
        activity = ActivityProfile.compute(4, 0.5)
        point = _solve(solver, 8, activity)
        calls = python_calls(pricing.operating_point, solver, mhz(8),
                             activity)
        # No dataclass __hash__/__eq__, no memo_key() rebuild: only the
        # stage itself runs Python code.
        assert calls == Counter({("pricing.py", "operating_point"): 1})
        assert _solve(solver, 8, activity) is point

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


class TestTargetKey:
    """Characterization keys on the OR10N cost table, so a perturbed
    target prices through the stages beside the default one."""

    def test_default_systems_share_one_entry(self):
        kernel = kernel_by_name("matmul")
        first = pricing.characterize(HeterogeneousSystem(), kernel)
        assert pricing.characterize(HeterogeneousSystem(), kernel) is first
        # An equal table built apart shares the entry too.
        twin = HeterogeneousSystem(target=Or10nTarget())
        assert pricing.characterize(twin, kernel) is first
        assert len(pricing._CHARACTERIZED) == 1

    def test_a_perturbed_target_gets_its_own_entry(self):
        costs = or10n_costs()
        simd = {dtype: dataclasses.replace(
            spec, overhead_factor=spec.overhead_factor * 1.25)
            for dtype, spec in costs.simd.items()}
        target = Or10nTarget(costs.with_overrides(simd=simd))
        kernel = kernel_by_name("matmul")
        program = pricing.program(kernel)
        default = pricing.characterize(HeterogeneousSystem(), kernel)
        perturbed = pricing.characterize(HeterogeneousSystem(target=target),
                                         kernel)
        assert len(pricing._CHARACTERIZED) == 2
        assert perturbed.execution == DeviceOpenMp(target, 4).execute(program)
        assert perturbed.execution.wall_cycles \
            > default.execution.wall_cycles
        single = pricing.characterize(
            HeterogeneousSystem(threads=1, target=target), kernel)
        assert single.execution.wall_cycles == target.lower(program).cycles


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


    def test_report_prices_each_operating_point_once(self, monkeypatch):
        calls = Counter()

        def counted(owner, name, label):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[label] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(PulpPowerModel, "_locus_point", "locus")
        counted(PowerEnvelopeSolver, "solve", "solve")
        counted(OffloadCostModel, "offload_timing", "offload")
        counted(OffloadCostModel, "_cost_phases", "phases")
        report.build_report()
        # 35 frequency searches over five activities share their locus
        # evaluations (297 without sharing); Figure 5b's 90 offloads
        # sweep iterations at five host clocks x two schedules.
        assert calls["locus"] <= 200
        assert calls["solve"] == 40
        assert calls["offload"] == 90
        assert calls["phases"] <= 10


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

    def test_cold_sweep_builds_each_program_once(self, monkeypatch):
        # Verification, characterization and the host baseline all read
        # the one memoized program of each kernel.
        builds = _count_builds(monkeypatch)
        space = ParameterSpace(grid={"kernel": list(BENCHMARK_NAMES),
                                     "host_mhz": [8.0, 16.0],
                                     "cluster_size": [2, 4]})
        result = ExplorationEngine(cache=None, jobs=1).run(space)
        assert len(result.records) == 4 * len(BENCHMARK_NAMES)
        assert Counter(builds) == Counter(BENCHMARK_NAMES)

    def test_verify_round_trips_the_memoized_program(self, monkeypatch):
        seen = []
        round_trip = HeterogeneousSystem.round_trip

        def spy(self, kernel, seed=0, program=None):
            seen.append(program)
            return round_trip(self, kernel, seed, program)

        monkeypatch.setattr(HeterogeneousSystem, "round_trip", spy)
        kernel = kernel_by_name("svm (RBF)")
        pricing.verify(kernel)
        assert seen == [pricing.program(kernel)]
        assert seen[0] is pricing.program(kernel_by_name("svm (RBF)"))

    def test_verify_matches_a_fresh_system_and_every_trip_is_cold(
            self, monkeypatch):
        # Each trip ships the binary, and each Verification is the one a
        # fresh system gives.  The second kernel's binary has the name
        # of the first's, so a system kept between trips would skip it.
        kernels = [kernel_by_name(name) for name in BENCHMARK_NAMES]
        kernels.insert(1, MatmulKernel(n=32))
        fresh = [HeterogeneousSystem().round_trip(
            kernel, program=pricing.program(kernel)) for kernel in kernels]
        trips = []
        round_trip = HeterogeneousSystem.round_trip

        def spy(self, kernel, seed=0, program=None):
            trips.append(round_trip(self, kernel, seed, program))
            return trips[-1]

        monkeypatch.setattr(HeterogeneousSystem, "round_trip", spy)
        for kernel, cold in zip(kernels, fresh):
            verification = pricing.verify(kernel)
            assert verification.verified is cold.verified is True
            assert verification.outputs.keys() == cold.outputs.keys()
            for key, array in cold.outputs.items():
                assert verification.outputs[key].dtype == array.dtype
                assert (verification.outputs[key] == array).all(), \
                    kernel.name
        assert len(trips) == len(kernels)
        assert all(trip.include_binary for trip in trips)
        assert [trip.binary_bytes for trip in trips] \
            == [cold.binary_bytes for cold in fresh]

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


class TestRiscOps:
    def test_equals_the_baseline_lowering_for_every_kernel(self):
        for name in BENCHMARK_NAMES:
            program = kernel_by_name(name).build_program()
            expected = BaselineRiscTarget().risc_ops(program)
            assert repr(pricing.risc_ops(kernel_by_name(name))) \
                == repr(expected), name

    def test_lowered_once_per_kernel_until_cleared(self, monkeypatch):
        names, walks = _baseline_lowerings(monkeypatch)
        first = pricing.risc_ops(kernel_by_name("svm (poly)"))
        assert pricing.risc_ops(kernel_by_name("svm (poly)")) == first
        assert names == ["svm (poly)"] and len(walks) == 1
        assert pricing._RISC_OPS
        pricing.clear()
        assert not pricing._RISC_OPS
        assert pricing.risc_ops(kernel_by_name("svm (poly)")) == first
        assert names == ["svm (poly)"] * 2 and len(walks) == 2

    def test_report_lowers_each_program_on_the_baseline_once(
            self, monkeypatch):
        names, walks = _baseline_lowerings(monkeypatch)
        report.build_report()
        assert Counter(names) == Counter(BENCHMARK_NAMES)
        assert len(walks) == len(names)
