"""Tests for the OpenMP runtime models (device and host side)."""

import dataclasses
import hashlib
import json

import pytest

from repro.errors import OffloadError, RuntimeModelError
from repro.isa.or10n import Or10nTarget
from repro.isa.program import Block, Loop, Program
from repro.isa.vop import OpKind, alu
from repro.kernels import all_kernels
from repro.pulp.binary import KernelBinary
from repro.pulp.l2 import L2Memory
from repro.link.protocol import Command
from repro.runtime import (
    DeviceOpenMp,
    MapClause,
    MapDirection,
    OmpOverheads,
    Schedule,
    TargetRegion,
)


def _work_program(trips=64, per_iter=100, parallel=True, reduction=False):
    loop = Loop(trips, [Block([alu(OpKind.ADD, count=per_iter)])],
                parallelizable=parallel, reduction=reduction)
    return Program("work", [loop])


class TestOmpOverheads:
    def test_region_fixed_cost(self):
        overheads = OmpOverheads()
        cost = overheads.region_fixed_cost(threads=4, reduction=False)
        assert cost == pytest.approx(overheads.parallel_fork
                                     + overheads.parallel_join
                                     + overheads.for_init
                                     + overheads.barrier)

    def test_reduction_adds_per_thread(self):
        overheads = OmpOverheads()
        base = overheads.region_fixed_cost(4, False)
        with_reduction = overheads.region_fixed_cost(4, True)
        assert with_reduction == base + 4 * overheads.reduction_per_thread

    def test_negative_rejected(self):
        with pytest.raises(Exception):
            OmpOverheads(parallel_fork=-1)


class TestDeviceOpenMp:
    def test_four_threads_faster(self, or10n_target):
        program = _work_program(trips=256, per_iter=400)
        single = DeviceOpenMp(or10n_target, 1).execute(program)
        quad = DeviceOpenMp(or10n_target, 4).execute(program)
        assert quad.wall_cycles < single.wall_cycles / 3

    def test_speedup_vs_single_near_four(self, or10n_target):
        program = _work_program(trips=400, per_iter=500)
        omp = DeviceOpenMp(or10n_target, 4)
        speedup = omp.speedup_vs_single(program)
        assert 3.5 < speedup < 4.0

    def test_serial_program_no_overhead(self, or10n_target):
        program = _work_program(parallel=False)
        execution = DeviceOpenMp(or10n_target, 4).execute(program)
        assert execution.overhead_cycles == 0.0
        assert execution.parallel_regions == 0
        assert execution.serial_cycles == execution.wall_cycles

    def test_overhead_fraction_positive_for_parallel(self, or10n_target):
        execution = DeviceOpenMp(or10n_target, 4).execute(_work_program())
        assert execution.overhead_fraction > 0
        assert execution.parallel_regions == 1

    def test_single_thread_never_forks(self, or10n_target):
        execution = DeviceOpenMp(or10n_target, 1).execute(_work_program())
        assert execution.overhead_cycles == 0.0

    def test_reduction_costs_more(self, or10n_target):
        plain = DeviceOpenMp(or10n_target, 4).execute(_work_program())
        reduced = DeviceOpenMp(or10n_target, 4).execute(
            _work_program(reduction=True))
        assert reduced.overhead_cycles > plain.overhead_cycles

    def test_dynamic_schedule_balances_but_costs(self, or10n_target):
        program = _work_program(trips=64, per_iter=50)
        static = DeviceOpenMp(or10n_target, 4,
                              schedule=Schedule.STATIC).execute(program)
        dynamic = DeviceOpenMp(or10n_target, 4,
                               schedule=Schedule.DYNAMIC).execute(program)
        assert dynamic.overhead_cycles > static.overhead_cycles

    def test_invalid_thread_count(self, or10n_target):
        with pytest.raises(RuntimeModelError):
            DeviceOpenMp(or10n_target, 0)

    def test_memory_intensity_bounded(self, or10n_target, simple_program):
        execution = DeviceOpenMp(or10n_target, 4).execute(simple_program)
        assert 0.0 <= execution.memory_intensity <= 1.0

    def test_amdahl_serial_section(self, or10n_target):
        serial_block = Loop(64, [Block([alu(OpKind.ADD, count=1000)])])
        parallel_loop = Loop(64, [Block([alu(OpKind.ADD, count=1000)])],
                             parallelizable=True)
        program = Program("amdahl", [serial_block, parallel_loop])
        omp = DeviceOpenMp(or10n_target, 4)
        speedup = omp.speedup_vs_single(program)
        # Half the work is serial: Amdahl caps the speedup near 8/5.
        assert 1.4 < speedup < 1.7


#: sha256 of every builtin kernel's ``execute`` at 1-8 threads under both
#: schedules (``dataclasses.asdict`` of each execution, as sorted JSON),
#: captured before equal static chunks shared one lowering.
EXECUTIONS_DIGEST = \
    "764bde6195f0292e34b3948a21cb669b12aa3ec3007f3ed0dd667a04b9d0dcd7"


class TestExecutionPinned:
    def test_builtin_kernels_at_every_team_size_and_schedule(self):
        rows = []
        for kernel in all_kernels():
            program = kernel.build_program()
            for schedule in Schedule:
                for threads in range(1, 9):
                    execution = DeviceOpenMp(
                        Or10nTarget(), threads=threads,
                        schedule=schedule).execute(program)
                    rows.append([kernel.name, schedule.value, threads,
                                 dataclasses.asdict(execution)])
        digest = hashlib.sha256(
            json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == EXECUTIONS_DIGEST

    def test_static_chunks_of_one_length_lower_once(self, monkeypatch):
        target = Or10nTarget()
        lowered = []
        lower_nodes = target.lower_nodes

        def counted(nodes):
            lowered.append(nodes[0].trips)
            return lower_nodes(nodes)

        monkeypatch.setattr(target, "lower_nodes", counted)
        # 10 trips on 4 threads: chunks 3, 3, 2, 2.
        DeviceOpenMp(target, 4).execute(_work_program(trips=10))
        assert sorted(lowered) == [2, 3]
        lowered.clear()
        DeviceOpenMp(target, 8).execute(_work_program(trips=64))
        assert lowered == [8]


class TestTargetRegion:
    def _region(self, in_bytes=256, out_bytes=128, binary_kwargs=None):
        binary = KernelBinary("k", code_bytes=1024,
                              **(binary_kwargs or {}))
        return TargetRegion(binary=binary, maps=[
            MapClause("in", MapDirection.TO, data=b"\x01" * in_bytes),
            MapClause("out", MapDirection.FROM, size=out_bytes),
        ])

    def test_place_assigns_addresses(self):
        region = self._region()
        region.place(L2Memory())
        assert region.addresses["__binary__"] == 0
        assert region.addresses["in"] >= 1024
        assert region.addresses["out"] > region.addresses["in"]
        assert not region.overlapped

    def test_frames_sequence(self):
        region = self._region()
        region.place(L2Memory())
        pre, post = region.to_frames()
        assert [f.command for f in pre] == [
            Command.LOAD_BINARY, Command.WRITE_DATA, Command.START]
        assert [f.command for f in post] == [Command.READ_DATA]

    def test_frames_without_binary(self):
        region = self._region()
        region.place(L2Memory())
        pre, _ = region.to_frames(include_binary=False)
        assert pre[0].command is Command.WRITE_DATA

    def test_frames_before_place_rejected(self):
        with pytest.raises(OffloadError):
            self._region().to_frames()

    def test_transfer_byte_accounting(self):
        region = self._region(in_bytes=300, out_bytes=200)
        assert region.bytes_to_device == 300
        assert region.bytes_from_device == 200

    def test_tofrom_counts_both_ways(self):
        binary = KernelBinary("k", code_bytes=64)
        region = TargetRegion(binary=binary, maps=[
            MapClause("buf", MapDirection.TOFROM, data=b"\x00" * 64)])
        assert region.bytes_to_device == 64
        assert region.bytes_from_device == 64

    def test_overlapped_layout_when_tight(self):
        # Binary ~17 kB + in 16 kB + out 36 kB cannot fit flat in 64 kB.
        region = self._region(in_bytes=16 * 1024, out_bytes=36 * 1024,
                              binary_kwargs={"const_bytes": 16 * 1024})
        region.place(L2Memory())
        assert region.overlapped
        assert region.addresses["in"] == region.addresses["out"]

    def test_oversized_working_set_rejected(self):
        region = self._region(
            binary_kwargs={"buffer_bytes": 80 * 1024})
        with pytest.raises(OffloadError):
            region.place(L2Memory())

    def test_map_clause_validation(self):
        with pytest.raises(OffloadError):
            MapClause("x", MapDirection.TO, data=b"")
        with pytest.raises(OffloadError):
            MapClause("y", MapDirection.FROM)
