"""Tests for the experiment harness — the paper's tables/figures, their
headline anchors, the anchor report and the calibration sensitivity."""

import pytest

from repro.experiments import (figure3, figure4, figure5, mcu_grid,
                               sensitivity, table1)
from repro.units import mhz


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return table1.run()

    def test_ten_rows(self, rows):
        assert len(rows) == 10

    def test_risc_ops_ratios(self, rows):
        for row in rows:
            if row.name == "hog":
                assert 0.6 < row.risc_ops_ratio < 1.1
            else:
                assert 0.9 < row.risc_ops_ratio < 1.1

    def test_render_contains_all_benchmarks(self, rows):
        text = table1.render(rows)
        for row in rows:
            assert row.name in text


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return figure3.run()

    def test_pulp_peak_matches_paper(self, result):
        peak = result.pulp_peak
        assert peak.gops_per_watt == pytest.approx(304, rel=0.08)
        assert peak.power == pytest.approx(1.48e-3, rel=0.08)

    def test_mcus_below_5_gops_per_watt_except_apollo(self, result):
        for point in result.mcu_points:
            if point.device == "Ambiq Apollo":
                assert point.gops_per_watt == pytest.approx(10, rel=0.15)
            else:
                assert point.gops_per_watt < 5

    def test_apollo_low_performance_point(self, result):
        apollo = [p for p in result.mcu_points
                  if p.device == "Ambiq Apollo"][0]
        # "a low performance 24 MOPS operating point"
        assert apollo.gops * 1000 == pytest.approx(24, rel=0.2)

    def test_efficiency_gap_about_1p5_orders(self, result):
        assert 20 < result.efficiency_gap() < 60

    def test_pulp_efficiency_peaks_at_lowest_voltage(self, result):
        points = sorted(result.pulp_points, key=lambda p: p.voltage)
        assert points[0].gops_per_watt == max(
            p.gops_per_watt for p in points)

    def test_six_pulp_operating_points(self, result):
        assert len(result.pulp_points) == 6

    def test_render(self, result):
        text = figure3.render(result)
        assert "PULP peak efficiency" in text
        assert "Apollo" in text


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return figure4.run()

    def test_integer_tests_2_to_2p5x(self, result):
        by_name = {r.name: r for r in result.rows}
        for name in ("matmul", "matmul (short)", "strassen"):
            assert 2.0 <= by_name[name].arch_speedup_vs_m4 <= 2.6, name

    def test_fixed_point_lower(self, result):
        by_name = {r.name: r for r in result.rows}
        for name in ("matmul (fixed)", "svm (linear)", "svm (poly)",
                     "svm (RBF)", "cnn", "cnn (approx)"):
            assert 1.2 <= by_name[name].arch_speedup_vs_m4 < 2.0, name

    def test_hog_slowdown_vs_m4(self, result):
        hog = [r for r in result.rows if r.name == "hog"][0]
        assert hog.arch_speedup_vs_m4 < 1.0
        assert hog.arch_speedup_vs_m3 == pytest.approx(1.0, abs=0.1)

    def test_m3_speedups_at_least_m4(self, result):
        for row in result.rows:
            assert row.arch_speedup_vs_m3 >= row.arch_speedup_vs_m4 * 0.99

    def test_parallel_speedups_below_ideal(self, result):
        for row in result.rows:
            assert 3.5 < row.parallel_speedup < 4.0, row.name

    def test_runtime_overhead_single_digit(self, result):
        assert 0.002 < result.mean_runtime_overhead < 0.06

    def test_render(self, result):
        text = figure4.render(result)
        assert "mean parallel speedup" in text


class TestFigure5a:
    @pytest.fixture(scope="class")
    def result(self):
        return figure5.run_figure5a()

    def test_strassen_fastest_near_60x(self, result):
        best = {name: result.best_speedup(name) for name in result.kernels()}
        assert best["strassen"] == max(best.values())
        assert best["strassen"] == pytest.approx(60, rel=0.08)

    def test_fixed_point_above_25x(self, result):
        for name in ("matmul (fixed)", "svm (linear)", "svm (poly)",
                     "svm (RBF)", "cnn", "cnn (approx)"):
            assert result.best_speedup(name) > 25, name

    def test_hog_worst_near_20x(self, result):
        best = {name: result.best_speedup(name) for name in result.kernels()}
        assert best["hog"] == min(best.values())
        assert best["hog"] == pytest.approx(20, rel=0.15)

    def test_32mhz_baseline_excluded(self, result):
        cells = [c for c in result.cells if c.host_frequency == mhz(32)]
        assert cells and all(not c.within_budget for c in cells)

    def test_speedup_decreases_with_host_frequency(self, result):
        for name in result.kernels():
            cells = sorted((c for c in result.cells
                            if c.kernel == name and c.within_budget),
                           key=lambda c: c.host_frequency)
            speedups = [c.speedup for c in cells]
            assert speedups == sorted(speedups, reverse=True), name

    def test_annotations_sensible(self, result):
        for cell in result.cells:
            assert cell.pulp_ops_per_cycle > cell.host_ops_per_cycle
            assert 0.3 < cell.host_ops_per_cycle < 2.0

    def test_render(self, result):
        assert "strassen" in figure5.render_figure5a(result)


class TestFigure5b:
    @pytest.fixture(scope="class")
    def result(self):
        return figure5.run_figure5b()

    def test_fast_hosts_reach_full_efficiency_by_32(self, result):
        for frequency in (mhz(16), mhz(26)):
            curve = dict(result.curve(frequency, double_buffered=False))
            assert curve[32] > 0.9

    def test_slow_host_plateaus(self, result):
        plateau = result.plateau(mhz(2), double_buffered=False)
        assert plateau < 0.8
        # It is a plateau: 128 -> 256 moves efficiency by < 3%.
        curve = dict(result.curve(mhz(2), double_buffered=False))
        assert abs(curve[256] - curve[128]) < 0.03

    def test_efficiency_monotonic_in_iterations(self, result):
        for frequency in (mhz(2), mhz(8), mhz(26)):
            for buffered in (False, True):
                curve = result.curve(frequency, buffered)
                values = [v for _, v in curve]
                assert values == sorted(values)

    def test_double_buffering_recovers_efficiency(self, result):
        serial = result.plateau(mhz(8), double_buffered=False)
        overlapped = result.plateau(mhz(8), double_buffered=True)
        assert overlapped > serial

    def test_single_iteration_pays_full_offload(self, result):
        curve = dict(result.curve(mhz(26), double_buffered=False))
        assert curve[1] < curve[32]

    def test_render(self, result):
        text = figure5.render_figure5b(result)
        assert "serial" in text and "double-buffered" in text


class TestSensitivity:
    @pytest.fixture(scope="class")
    def rows(self):
        return sensitivity.run(factors=(0.8, 1.0, 1.25))

    def test_grid_complete(self, rows):
        assert len(rows) == 9  # 3 knobs x 3 factors

    def test_nominal_matches_paper_anchor(self, rows):
        nominal = [r for r in rows if r.factor == 1.0]
        for row in nominal:
            assert row.peak_efficiency == pytest.approx(304, rel=0.08)
            assert row.arch_speedup == pytest.approx(2.38, abs=0.05)

    def test_density_scaling_inverts_efficiency(self, rows):
        density = {r.factor: r for r in rows if r.knob == "dynamic densities"}
        assert density[0.8].peak_efficiency > density[1.25].peak_efficiency
        # Densities do not touch the timing model.
        assert density[0.8].arch_speedup == density[1.25].arch_speedup

    def test_simd_overhead_moves_arch_speedup(self, rows):
        simd = {r.factor: r for r in rows if r.knob == "simd overhead"}
        assert simd[0.8].arch_speedup > simd[1.25].arch_speedup

    def test_leakage_second_order(self, rows):
        leakage = {r.factor: r for r in rows if r.knob == "leakage"}
        density = {r.factor: r for r in rows
                   if r.knob == "dynamic densities"}
        leak_spread = abs(leakage[0.8].efficiency_shift()
                          - leakage[1.25].efficiency_shift())
        density_spread = abs(density[0.8].efficiency_shift()
                             - density[1.25].efficiency_shift())
        assert leak_spread < density_spread

    def test_render(self, rows):
        text = sensitivity.render(rows)
        assert "GOPS/W" in text and "simd overhead" in text

    def test_unperturbed_rows_are_figures_3_and_4(self, rows):
        # Sensitivity runs Figure 3's sweep and Figure 4's M4 speedup on
        # a perturbed system, so a factor of 1 reproduces both exactly.
        peak = figure3.run().pulp_peak.gops_per_watt
        matmul = next(row for row in figure4.run().rows
                      if row.name == "matmul")
        nominal = [row for row in rows if row.factor == 1.0]
        assert len(nominal) == 3
        for row in nominal:
            assert row.peak_efficiency == peak
            assert row.arch_speedup == matmul.arch_speedup_vs_m4


class TestMcuGrid:
    def test_matmul_row_is_figure3(self):
        result = figure3.run()
        row = next(row for row in mcu_grid.run() if row.kernel == "matmul")
        assert row.pulp_gops_per_watt == result.pulp_peak.gops_per_watt
        assert row.best_mcu == result.best_mcu.device
        assert row.best_mcu_gops_per_watt == result.best_mcu.gops_per_watt


class TestReport:
    def test_all_anchors_pass(self):
        from repro.experiments.report import anchor_summary
        passed, total = anchor_summary()
        assert total >= 15
        assert passed == total

    def test_report_structure(self):
        from repro.experiments.report import build_report
        report = build_report()
        for section in ("Table I", "Figure 3", "Figure 4",
                        "Figure 5a", "Figure 5b"):
            assert f"## {section}" in report
        assert "[FAIL]" not in report
