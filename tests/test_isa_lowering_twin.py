"""The lowering walk against its reference twin.

:class:`~repro.isa.target.Target` resolves its cost table into one
entry per op kind at construction, and reads each loop's nesting depth
and vector-op kinds from properties cached on the frozen IR.
``ReferenceTarget`` below is the walk as it was before: Enum-keyed
``cycles_for``/``instructions_for`` per op, a recursive depth per loop
and a subtree scan for its vector ops.  Every report field must come
out equal to the bit, with the same ``cycles_by_kind`` key order.
"""

import gc
import math
import os
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.isa import (BaselineRiscTarget, Block, CortexM3Target,
                       CortexM4Target, DType, Loop, LoweredReport, OpKind,
                       Or10nTarget, Program, Target, VOp)
from repro.isa.costs import SimdSpec, TargetCosts, or10n_costs
from repro.kernels import all_kernels
from repro.kernels.cnn import CnnKernel, conv2_connection_table, perforation_mask
from repro.kernels.hog import HogKernel, gaussian_window_q15
from repro.mcu.catalog import MCU_CATALOG
from repro.runtime.omp import DeviceOpenMp, Schedule


# -- the reference twin -------------------------------------------------------


def _depth(loop):
    child_depths = [_depth(node) for node in loop.body
                    if isinstance(node, Loop)]
    return 1 + (max(child_depths) if child_depths else 0)


def _vector_ops(loop):
    stack = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, Block):
            for op in node.ops:
                if op.vector and not (op.kind is OpKind.ADDR and op.foldable):
                    yield op
        else:
            stack.extend(node.body)


class ReferenceTarget:
    """The per-op, Enum-keyed lowering walk, kept as the oracle."""

    def __init__(self, costs):
        self.costs = costs
        self.name = costs.name

    def lower(self, program):
        return self.lower_nodes(program.body)

    def lower_nodes(self, nodes):
        report = LoweredReport(target_name=self.name)
        for node in nodes:
            self._lower_node(node, report, None)
        scale = self.costs.cycle_scale
        if scale != 1.0:
            report.cycles *= scale
            for key in report.cycles_by_kind:
                report.cycles_by_kind[key] *= scale
        return report

    def vector_plan(self, loop):
        if not loop.vectorizable:
            return None
        spec = self.costs.simd.get(loop.simd_dtype)
        if spec is None or spec.lanes <= 1:
            return None
        has_multiply = False
        for op in _vector_ops(loop):
            if op.kind not in self.costs.simd_kinds:
                return None
            if op.kind in (OpKind.MUL, OpKind.MAC):
                has_multiply = True
        if not has_multiply and spec.pure_alu_overhead is not None:
            return replace(spec, overhead_factor=spec.pure_alu_overhead)
        return spec

    def _lower_node(self, node, report, simd):
        if isinstance(node, Block):
            for op in node.ops:
                self._lower_op(op, report, simd)
        else:
            self._lower_loop(node, report, simd)

    def _lower_loop(self, loop, report, simd):
        plan = self.vector_plan(loop) if simd is None else None
        trips = loop.trips
        body_simd = simd
        overhead_factor = 1.0
        extra_cycles = 0.0
        extra_instructions = 0.0
        if plan is not None:
            trips = math.ceil(loop.trips / plan.lanes)
            body_simd = plan
            overhead_factor = plan.overhead_factor
            extra_cycles = plan.extra_cycles_per_iter
            extra_instructions = plan.extra_instructions_per_iter
        body = LoweredReport(target_name=self.name)
        for child in loop.body:
            self._lower_node(child, body, body_simd)
        if plan is not None:
            body.cycles *= overhead_factor
            for key in body.cycles_by_kind:
                body.cycles_by_kind[key] *= overhead_factor
        if _depth(loop) <= self.costs.hardware_loops:
            iter_cycles = 0.0
            iter_instructions = 0.0
            setup = self.costs.hwloop_setup_cycles
        else:
            iter_cycles = self.costs.loop_iter_cycles
            iter_instructions = self.costs.loop_iter_instructions
            setup = self.costs.loop_setup_cycles
        report.merge_scaled(body, trips)
        report.add("loop_overhead",
                   (iter_cycles + extra_cycles) * trips,
                   (iter_instructions + extra_instructions) * trips)
        report.add("loop_setup", setup, 1.0)

    def _lower_op(self, op, report, simd):
        count = op.count
        if simd is not None and not op.vector:
            count *= simd.lanes
        if op.kind is OpKind.ADDR and op.foldable and self.costs.addr_folded:
            return
        cycles = self.costs.cycles_for(op.kind)
        instructions = self.costs.instructions_for(op.kind)
        memory = 0.0
        if op.is_memory:
            memory = count
            if op.unaligned and simd is not None:
                cycles += self.costs.unaligned_penalty_cycles
                instructions += self.costs.unaligned_penalty_instructions
        report.add(op.kind.value, cycles * count, instructions * count, memory)


# -- what is compared ------------------------------------------------------------


def _ablation_costs():
    """An OR10N table with every knob the walk reads moved."""
    base = or10n_costs()
    return base.with_overrides(
        name="or10n-ablation",
        hardware_loops=1,
        addr_folded=False,
        unaligned_penalty_cycles=1.0,
        unaligned_penalty_instructions=2.0,
        op_cycles={**dict(base.op_cycles), OpKind.MAC: 2.0},
        simd={DType.I8: SimdSpec(lanes=4, overhead_factor=2.0,
                                 extra_cycles_per_iter=0.5,
                                 extra_instructions_per_iter=1.0),
              DType.I16: SimdSpec(lanes=2, overhead_factor=1.25,
                                  pure_alu_overhead=1.1)},
        cycle_scale=1.3)


def _msp430_core():
    return next(device.core for device in MCU_CATALOG
                if device.core.name == "msp430-16bit")


TARGETS = {
    "or10n": Or10nTarget,
    "baseline-risc": BaselineRiscTarget,
    "cortex-m4": CortexM4Target,
    "cortex-m3": CortexM3Target,
    "msp430-16bit": _msp430_core,
    "or10n-ablation": lambda: Target(_ablation_costs()),
}

PROGRAMS = {kernel.name: kernel.build_program() for kernel in all_kernels()}


def _fields(report):
    """Every report field; ``repr`` tells -0.0 from 0.0 and int from
    float, and the item list keeps the key order."""
    return repr((report.target_name, report.cycles, report.instructions,
                 list(report.cycles_by_kind.items()),
                 report.memory_accesses))


def _random_program(rng):
    """A seeded loop nest exercising every path of the walk."""
    kinds = list(OpKind)
    dtypes = list(DType)

    def op():
        kind = rng.choice(kinds)
        memory = kind in (OpKind.LOAD, OpKind.STORE)
        return VOp(kind, rng.choice(dtypes),
                   rng.choice([0.0, 0.1, 0.25, 1 / 3, 1.0, 1, 2, 2.7]),
                   vector=rng.random() < 0.7,
                   unaligned=memory and rng.random() < 0.5,
                   foldable=rng.random() < 0.7)

    def nodes(depth):
        body = []
        for _ in range(rng.randint(1, 3)):
            if depth < 4 and rng.random() < 0.5:
                body.append(Loop(rng.choice([0, 1, 3, 7, 16, 33]),
                                 nodes(depth + 1),
                                 vectorizable=rng.random() < 0.6,
                                 simd_dtype=rng.choice(dtypes),
                                 parallelizable=depth == 0
                                 and rng.random() < 0.5,
                                 reduction=rng.random() < 0.3))
            else:
                body.append(Block([op() for _ in range(rng.randint(0, 5))]))
        return body

    return Program("random", nodes(0))


# -- the walk --------------------------------------------------------------------


class TestLoweringMatchesTheTwin:
    @pytest.mark.parametrize("target_name", sorted(TARGETS))
    @pytest.mark.parametrize("kernel", sorted(PROGRAMS))
    def test_every_kernel_on_every_target(self, kernel, target_name):
        target = TARGETS[target_name]()
        reference = ReferenceTarget(target.costs)
        program = PROGRAMS[kernel]
        assert _fields(target.lower(program)) \
            == _fields(reference.lower(program))
        for node in program.body:
            assert _fields(target.lower_nodes([node])) \
                == _fields(reference.lower_nodes([node]))
        for loop in program.loops():
            assert target.vector_plan(loop) == reference.vector_plan(loop)

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_random_programs(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            program = _random_program(rng)
            for make in TARGETS.values():
                target = make()
                reference = ReferenceTarget(target.costs)
                assert _fields(target.lower(program)) \
                    == _fields(reference.lower(program))
                for loop in program.loops():
                    assert target.vector_plan(loop) \
                        == reference.vector_plan(loop)

    @pytest.mark.parametrize("target_name", sorted(TARGETS))
    def test_openmp_execution_at_every_team_size(self, target_name):
        target = TARGETS[target_name]()
        reference = ReferenceTarget(target.costs)
        for program in PROGRAMS.values():
            for threads in range(1, 9):
                for schedule in Schedule:
                    got = DeviceOpenMp(target, threads,
                                       schedule=schedule).execute(program)
                    want = DeviceOpenMp(reference, threads,
                                        schedule=schedule).execute(program)
                    assert repr(got) == repr(want), (program.name, threads,
                                                     schedule)


class TestMissingCosts:
    def _costs(self, **tables):
        full = {kind: 1.0 for kind in OpKind}
        return TargetCosts(
            name="partial",
            op_cycles=tables.get("op_cycles", full),
            op_instructions=tables.get("op_instructions", full),
            loop_iter_cycles=1, loop_iter_instructions=1,
            loop_setup_cycles=1, addr_folded=True)

    @pytest.mark.parametrize("table, message", [
        ("op_cycles", "no cycle cost"),
        ("op_instructions", "no instruction cost")])
    def test_same_error_as_the_table(self, table, message):
        partial = {kind: 1.0 for kind in OpKind if kind is not OpKind.MAC}
        costs = self._costs(**{table: partial})
        program = Program("p", [Loop(4, [Block([VOp(OpKind.LOAD),
                                                VOp(OpKind.MAC)])])])
        errors = []
        for target in (Target(costs), ReferenceTarget(costs)):
            with pytest.raises(ConfigurationError, match=message) as info:
                target.lower(program)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        # A table that lacks a kind lowers programs that never use it.
        clean = Program("q", [Block([VOp(OpKind.LOAD)])])
        assert _fields(Target(costs).lower(clean)) \
            == _fields(ReferenceTarget(costs).lower(clean))

    def test_folded_address_updates_need_no_entry(self):
        partial = {kind: 1.0 for kind in OpKind if kind is not OpKind.ADDR}
        costs = self._costs(op_cycles=partial, op_instructions=partial)
        program = Program("p", [Block([VOp(OpKind.ADDR, foldable=True)])])
        assert Target(costs).lower(program).cycles == 0.0


def _python_calls(fn, *args):
    """(file, function) of every Python-level call ``fn(*args)`` makes,
    itself included.  The collector is held off meanwhile, so no
    finalizer of an earlier test's garbage is counted."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[(os.path.basename(code.co_filename), code.co_name)] += 1

    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


class TestNoPerOpWork:
    def test_kinds_hash_by_identity(self):
        assert OpKind.__hash__ is object.__hash__
        assert DType.__hash__ is object.__hash__
        assert {kind: kind.value for kind in OpKind}[OpKind.MAC] == "mac"

    @pytest.mark.parametrize("target_name", sorted(TARGETS))
    def test_warm_walk_calls_only_the_walk(self, target_name):
        target = TARGETS[target_name]()
        program = PROGRAMS["hog"]
        target.lower(program)
        calls = _python_calls(target.lower, program)
        files = {name for name, _ in calls}
        # No enum hash or .value, no cached-property fill, no depth
        # recursion or VOp property: only the walk and the report.
        assert files <= {"target.py", "<string>"}, calls

    def test_each_loop_computes_its_shape_once(self):
        program = CnnKernel().build_program()
        loops = list(program.loops())
        targets = [Or10nTarget(), Or10nTarget(), BaselineRiscTarget()]
        calls = Counter()
        for target in targets:
            calls += _python_calls(target.lower, program)
        assert calls[("program.py", "depth")] == len(loops)
        vectorizable = [loop for loop in loops if loop.vectorizable]
        assert calls[("program.py", "vector_kinds")] <= len(loops)
        assert all("vector_kinds" in vars(loop) for loop in vectorizable)

    def test_cached_shape_matches_the_recursion(self):
        for program in PROGRAMS.values():
            for loop in program.loops():
                assert loop.depth == _depth(loop)
                assert loop.vector_kinds == frozenset(
                    op.kind for op in _vector_ops(loop))


class TestKernelTables:
    def test_built_once_and_shared(self):
        exact, approximate = CnnKernel(), CnnKernel(approximate=True)
        assert exact._connections is approximate._connections \
            is conv2_connection_table()
        assert exact._mask is approximate._mask is perforation_mask()
        assert HogKernel()._window is HogKernel()._window \
            is gaussian_window_q15()

    @pytest.mark.parametrize("table", [conv2_connection_table,
                                       perforation_mask,
                                       gaussian_window_q15])
    def test_write_protected(self, table):
        array = table()
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = array[0, 0]
