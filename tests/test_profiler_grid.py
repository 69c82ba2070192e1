"""Tests for the ISS profiler and the all-kernel MCU efficiency grid."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.experiments.mcu_grid import render, run
from repro.machine.profiler import ProfilingMachine
from repro.machine.programs import DOT_PRODUCT_I8, MATMUL_I8


def _profiled_dot(n=64):
    machine = ProfilingMachine()
    a = np.ones(n, dtype=np.int8)
    machine.write_block(0x100, a.tobytes())
    machine.write_block(0x800, a.tobytes())
    machine.registers[1] = 0x100
    machine.registers[2] = 0x800
    machine.registers[3] = n
    return machine.run_profiled(DOT_PRODUCT_I8)


class TestProfiler:
    def test_functional_result_unchanged(self):
        profiled = _profiled_dot()
        assert profiled.result.registers[10] == 64
        assert profiled.result.halted

    def test_cycles_fully_attributed(self):
        profiled = _profiled_dot()
        assert sum(profiled.cycles_by_pc) == \
            pytest.approx(profiled.result.cycles)

    def test_execution_counts(self):
        profiled = _profiled_dot(n=10)
        # The loop body instructions each execute n times.
        assert profiled.executions_by_pc[2] == 10  # first lb
        assert profiled.executions_by_pc[0] == 1   # init

    def test_hotspots_are_the_loads(self):
        profiled = _profiled_dot()
        hotspots = profiled.hotspots(2)
        hot_pcs = {pc for pc, _ in hotspots}
        assert hot_pcs == {2, 3}  # the two lb instructions
        assert all(share > 0.2 for _, share in hotspots)

    def test_render(self):
        text = _profiled_dot().render()
        assert "profile:" in text
        assert "mac" in text

    def test_matmul_hotspot_is_inner_loop(self):
        from repro.kernels.matmul import MatmulKernel
        kernel = MatmulKernel("char", n=8)
        inputs = kernel.generate_inputs(0)
        machine = ProfilingMachine()
        n = 8
        base_a, base_b = 0x100, 0x100 + n * n + 64
        base_c = 0x100 + 2 * (n * n + 64)
        machine.write_block(base_a, inputs["a"].tobytes())
        machine.write_block(base_b, inputs["b"].tobytes())
        machine.registers[1] = base_a
        machine.registers[2] = base_b
        machine.registers[3] = base_c
        machine.registers[4] = n
        profiled = machine.run_profiled(MATMUL_I8)
        top_pc, top_share = profiled.hotspots(1)[0]
        # The k-loop body (pcs 7..11) dominates an O(n^3) kernel.
        assert 7 <= top_pc <= 11
        assert top_share > 0.1


class TestMcuGrid:
    @pytest.fixture(scope="class")
    def rows(self):
        return run()

    def test_all_kernels_present(self, rows):
        assert len(rows) == 10

    def test_pulp_always_wins(self, rows):
        for row in rows:
            assert row.efficiency_gap > 5, row.kernel

    def test_integer_gaps_largest_hog_smallest(self, rows):
        by_name = {row.kernel: row for row in rows}
        gaps = {name: row.efficiency_gap for name, row in by_name.items()}
        assert gaps["hog"] == min(gaps.values())
        ranked = sorted(gaps, key=gaps.get, reverse=True)
        # The SIMD-friendly integer kernels lead the pack.
        assert set(ranked[:2]) <= {"matmul", "strassen", "matmul (short)"}

    def test_apollo_best_mcu_everywhere(self, rows):
        # Nothing in the catalog touches the subthreshold Apollo.
        assert all(row.best_mcu == "Ambiq Apollo" for row in rows)

    def test_matmul_matches_figure3(self, rows):
        matmul = [row for row in rows if row.kernel == "matmul"][0]
        assert matmul.pulp_gops_per_watt == pytest.approx(304, rel=0.08)

    def test_render(self, rows):
        text = render(rows)
        assert "gap" in text and "hog" in text

    def test_rows_pinned(self, rows):
        # sha256 of the rows as sorted JSON, captured before the grid
        # priced through repro.core.pricing.
        payload = json.dumps([dataclasses.asdict(row) for row in rows],
                             sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "89b3d0a45c488c9c5fe9d1ffd049bd85435ced5faae61488667adea72f3670b6")
