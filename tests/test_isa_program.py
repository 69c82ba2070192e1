"""Tests for the VOp vocabulary and loop-nest program IR."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IsaError
from repro.isa.program import Block, Loop, Program
from repro.isa.vop import DType, OpKind, VOp, alu, load, mac, store


class TestVOp:
    def test_defaults(self):
        op = load()
        assert op.kind is OpKind.LOAD
        assert op.dtype is DType.I32
        assert op.count == 1.0
        assert op.is_memory

    def test_scaled(self):
        op = mac(DType.I8, 2.0).scaled(3.0)
        assert op.count == 6.0
        assert op.kind is OpKind.MAC

    def test_wide_detection(self):
        assert VOp(OpKind.MAC64, DType.I32).is_wide
        assert not mac().is_wide

    def test_negative_count_rejected(self):
        with pytest.raises(IsaError):
            VOp(OpKind.ADD, DType.I32, count=-1)

    def test_unaligned_only_on_memory(self):
        with pytest.raises(IsaError):
            VOp(OpKind.ADD, DType.I32, unaligned=True)
        load(unaligned=True)  # fine

    def test_dtype_widths(self):
        assert DType.I8.bytes == 1
        assert DType.I16.bits == 16
        assert DType.I32.bytes == 4


class TestLoop:
    def test_depth_innermost(self):
        loop = Loop(4, [Block([load()])])
        assert loop.depth == 1

    def test_depth_nested(self):
        inner = Loop(4, [Block([load()])])
        middle = Loop(4, [inner])
        outer = Loop(4, [middle, Loop(2, [Block([store()])])])
        assert outer.depth == 3

    def test_with_trips(self):
        loop = Loop(10, [Block([load()])], name="x")
        clone = loop.with_trips(3)
        assert clone.trips == 3
        assert clone.name == "x"
        assert loop.trips == 10  # original untouched

    def test_negative_trips_rejected(self):
        with pytest.raises(IsaError):
            Loop(-1, [])


class TestProgram:
    def test_dynamic_op_counts(self, simple_program):
        counts = simple_program.dynamic_op_counts()
        # 8 outer iterations x 4 inner: loads = 8*4*2, macs = 8*4,
        # stores = 8, addr = 8*4.
        assert counts[OpKind.LOAD] == 64
        assert counts[OpKind.MAC] == 32
        assert counts[OpKind.STORE] == 8
        assert counts[OpKind.ADDR] == 32

    def test_total_dynamic_ops(self, simple_program):
        assert simple_program.total_dynamic_ops() == 64 + 32 + 8 + 32

    def test_walk_visits_all_nodes(self, simple_program):
        nodes = list(simple_program.walk())
        loops = [n for n in nodes if isinstance(n, Loop)]
        blocks = [n for n in nodes if isinstance(n, Block)]
        assert len(loops) == 2
        assert len(blocks) == 2

    def test_parallel_loops_top_level_only(self, simple_program):
        parallel = simple_program.parallel_loops()
        assert len(parallel) == 1
        assert parallel[0].name == "outer"

    def test_static_instruction_estimate_positive(self, simple_program):
        estimate = simple_program.static_instruction_estimate()
        # 5 ops + 4 per loop * 2 loops + 16 prologue
        assert estimate == 5 + 8 + 16

    def test_map_loops_replaces(self, simple_program):
        doubled = simple_program.map_loops(
            lambda loop: loop.with_trips(loop.trips * 2))
        counts = doubled.dynamic_op_counts()
        # Inner ops scale by 4 (both nest levels doubled), the per-outer
        # store only by 2.
        assert counts[OpKind.LOAD] == 256
        assert counts[OpKind.MAC] == 128
        assert counts[OpKind.STORE] == 16

    def test_map_loops_keeps_on_none(self, simple_program):
        same = simple_program.map_loops(lambda loop: None)
        assert same.total_dynamic_ops() == simple_program.total_dynamic_ops()

    @given(st.integers(0, 50), st.integers(1, 8))
    def test_op_counts_scale_with_trips(self, trips, count):
        loop = Loop(trips, [Block([alu(OpKind.ADD, count=count)])])
        program = Program("p", [loop])
        assert program.total_dynamic_ops() == trips * count

    def test_block_total_count(self):
        block = Block([load(count=2), mac(count=3)])
        assert block.total_count() == 5
